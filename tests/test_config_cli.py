"""Config round trips, CSV and manifest emission, and the CLI surface."""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from sldsim import (
    ConfigError,
    ModelConfig,
    Policy,
    SldsModel,
    Trajectory,
    build_case_study,
    classify_regions,
    load_model_config,
    model_config_from_dict,
    model_config_to_dict,
    polyhedron,
    rewards_of,
    run_pipeline,
    save_model_config,
    simulate_regenerative,
    write_manifest,
    write_trajectory_csv,
)
from sldsim.config import fmt, sha256_of_file
from sldsim.ergodicity import _MAX_SUBSETS
import sldsim.cli as cli
from sldsim.cli import main
from sldsim.errors import (ClassificationConflict, DivergenceError,
                           NotCertifiable, UncoveredExterior, report_error)
from sldsim.regen import operational_minorization

from conftest import build_system, contracting_system, CONTRACT_C_ROOT


POLY4_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "poly4.json"


def make_config(tmp_path, name="model.json", n=1, gamma_root=0.9,
                c_root=2.0, rho=10.0) -> str:
    model, policy, spec = build_case_study(n, gamma_root, c_root, rho)
    cfg = ModelConfig(model=model, policy=policy, reward=spec,
                      rho_ball=rho)
    path = tmp_path / name
    save_model_config(cfg, path)
    return str(path)


class TestFmt:
    def test_bools_become_bits(self):
        assert fmt(True) == "1"
        assert fmt(False) == "0"
        assert fmt(np.bool_(True)) == "1"

    def test_ints_stay_integral(self):
        assert fmt(7) == "7"
        assert fmt(np.int64(-3)) == "-3"

    def test_floats_round_trip(self):
        assert fmt(0.1) == "0.1"
        assert fmt(1 / 3) == "0.3333333333333333"
        rng = np.random.default_rng(0)
        for v in rng.standard_normal(200) * 10.0 ** rng.integers(
                -8, 8, size=200):
            assert float(fmt(v)) == v


class TestModelConfigRoundTrip:
    def test_radial_benchmark(self):
        model, policy, spec = build_case_study(2, 0.9, 2.0, 10.0)
        cfg = ModelConfig(model=model, policy=policy, reward=spec,
                          rho_ball=10.0)
        back = model_config_from_dict(model_config_to_dict(cfg))
        assert back.model.n == 2 and back.model.p == 1
        assert back.rho_ball == 10.0
        assert back.model.regions[0].r_hi == math.inf
        for (a1, b1), (a2, b2) in zip(cfg.model.dynamics,
                                      back.model.dynamics):
            assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        assert np.array_equal(back.policy.pi, cfg.policy.pi)
        assert np.array_equal(back.reward.p_hat, cfg.reward.p_hat)

    def test_infinite_shell_serializes_as_null(self):
        model, policy, spec = build_case_study(1, 0.9, 2.0, 10.0)
        cfg = ModelConfig(model=model, policy=policy, reward=spec,
                          rho_ball=10.0)
        d = model_config_to_dict(cfg)
        assert d["regions"][0]["r_hi"] is None
        assert d["regions"][1]["r_hi"] == 10.0
        assert json.loads(json.dumps(d)) == d

    def test_polyhedral_round_trip(self):
        data = {
            "n": 1, "p": 1,
            "regions": [
                {"kind": "polyhedral", "L": [[1.0], [-1.0]],
                 "C": [5.0, 5.0], "declared_unbounded": False},
                {"kind": "radial", "r_lo": 0.0, "r_hi": None,
                 "declared_unbounded": True},
            ],
            "A": [[[0.5]], [[0.9]]],
            "B": [[[0.0]], [[0.0]]],
            "pi": [[0.0]],
            "Q": [[1.0]],
            "R": [[1.0]],
            "rho": 6.0,
        }
        cfg = model_config_from_dict(data)
        region = cfg.model.regions[0]
        assert region.kind == "polyhedral"
        assert np.array_equal(region.L, [[1.0], [-1.0]])
        assert not region.declared_unbounded
        again = model_config_to_dict(cfg)
        assert again["regions"][0]["L"] == [[1.0], [-1.0]]

        helper = polyhedron([[1.0], [-1.0]], [5.0, 5.0],
                            declared_unbounded=False)
        assert np.array_equal(helper.L, region.L)

    def test_flagless_polyhedron_survives_save_and_load(self, tmp_path):
        shells, policy, spec = build_case_study(1, 0.9, 2.0, 10.0)
        model = SldsModel(n=1, p=1, regions=(polyhedron([[-1.0]], [0.0]),
                                             polyhedron([[1.0]], [0.0])),
                          dynamics=shells.dynamics)
        cfg = ModelConfig(model=model, policy=policy, reward=spec,
                          rho_ball=10.0)
        save_model_config(cfg, tmp_path / "model.json")
        again = load_model_config(tmp_path / "model.json")
        for a, b in zip(cfg.model.regions, again.model.regions):
            assert b.kind == "polyhedral" and b.declared_unbounded is None
            assert np.array_equal(a.L, b.L) and np.array_equal(a.C, b.C)
        assert model_config_to_dict(again) == model_config_to_dict(cfg)

    def test_normalize_flag(self):
        data = model_config_to_dict(ModelConfig(
            *build_case_study(1, 0.9, 2.0, 10.0), rho_ball=10.0))
        assert "normalize_reward" not in data
        data["Q"] = [[4.0]]
        data["normalize_reward"] = True
        cfg = model_config_from_dict(data)
        assert cfg.reward.p_hat_is_identity

    def test_normalize_flag_survives_save_and_load(self, tmp_path):
        data = model_config_to_dict(ModelConfig(
            *build_case_study(2, 0.9, 2.0, 10.0), rho_ball=10.0))
        for q, flag in ((4.0, True), (4.0, False), (0.5, True)):
            data.update(Q=(q * np.eye(2)).tolist(), normalize_reward=flag)
            cfg = model_config_from_dict(data)
            save_model_config(cfg, tmp_path / "model.json")
            again = load_model_config(tmp_path / "model.json")
            assert np.array_equal(again.reward.p_hat, cfg.reward.p_hat)
            # The flag is written only where it changed P_hat.
            assert ("normalize_reward" in model_config_to_dict(cfg)) == \
                (flag and q > 1.0)

    def test_error_reporting(self):
        good = model_config_to_dict(ModelConfig(
            *build_case_study(1, 0.9, 2.0, 10.0), rho_ball=10.0))

        missing = dict(good)
        del missing["Q"]
        with pytest.raises(ConfigError, match="invalid model config"):
            model_config_from_dict(missing)

        bad_rho = dict(good, rho=0.0)
        with pytest.raises(ConfigError, match="rho"):
            model_config_from_dict(bad_rho)

        bad_kind = dict(good)
        bad_kind["regions"] = [{"kind": "spherical"}]
        with pytest.raises(ConfigError, match="unknown kind"):
            model_config_from_dict(bad_kind)

        lopsided = dict(good, A=good["A"][:1])
        with pytest.raises(ConfigError):
            model_config_from_dict(lopsided)

        region = dict(good["regions"][0])
        misread = [
            (dict(good, normalise_reward=True), "unknown keys"),
            (dict(good, regions=[dict(region, r_top=1.0)]
                  + good["regions"][1:]), "unknown keys"),
            (dict(good, n=2.7), "n must be an integer"),
            (dict(good, n=True), "n must be an integer"),
            (dict(good, p="1"), "p must be an integer"),
            (dict(good, regions=[dict(region, declared_unbounded="false")]
                  + good["regions"][1:]), "declared_unbounded"),
            (dict(good, normalize_reward=1), "normalize_reward"),
            (dict(good, rho=math.nan), "rho"),
            (dict(good, rho=math.inf), "rho"),
            (dict(good, rho=True), "rho"),
            ([good], "JSON object"),
        ]
        for data, match in misread:
            with pytest.raises(ConfigError, match=match):
                model_config_from_dict(data)

        poly = {"kind": "polyhedral", "L": [[1.0]], "C": [5.0]}
        for flag in ("true", 0):
            with pytest.raises(ConfigError, match="declared_unbounded"):
                model_config_from_dict(dict(good, regions=[
                    dict(poly, declared_unbounded=flag)]))
        # A polyhedron's flag may be null or absent, as a shell's may.
        halves = [dict(poly, L=[[-1.0]], C=[0.0], declared_unbounded=None),
                  dict(poly, C=[0.0])]
        cfg = model_config_from_dict(dict(good, regions=halves))
        assert [r.declared_unbounded for r in cfg.model.regions] == \
            [None, None]
        assert classify_regions(cfg.model, cfg.rho_ball).unbounded_set == \
            (0, 1)

    def test_file_round_trip(self, tmp_path):
        path = make_config(tmp_path)
        cfg = load_model_config(path)
        assert cfg.model.n == 1
        assert cfg.rho_ball == 10.0

    def test_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_model_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_model_config(bad)


class TestCsvAndManifest:
    def test_trajectory_csv_exact_text(self, tmp_path):
        traj = Trajectory(states=np.array([[1.0], [2.5]]),
                          rewards=np.array([1.0, 2.5]))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text() == (
            "step,x_0,reward\n0,1.0,1.0\n1,2.5,2.5\n")

    def test_trajectory_csv_multicolumn_header(self, tmp_path):
        traj = Trajectory(states=np.zeros((1, 3)),
                          rewards=np.zeros(1))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text().splitlines()[0] == (
            "step,x_0,x_1,x_2,reward")

    def test_hashes(self, tmp_path):
        p = tmp_path / "empty"
        p.write_bytes(b"")
        assert sha256_of_file(p) == (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855")
        p = tmp_path / "blob"
        p.write_bytes(b"abc")
        assert sha256_of_file(p) == (
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad")

    def test_manifest_contents(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, "f" * 64, 42, extra={"note": "hello"})
        data = json.loads(path.read_text())
        assert data["config_sha256"] == "f" * 64
        assert data["master_seed"] == 42
        assert data["note"] == "hello"
        for key in ("sldsim_version", "numpy_version", "scipy_version",
                    "python_version", "platform"):
            assert key in data
        # sort_keys makes reruns byte-comparable
        assert list(data) == sorted(data)


class TestCliSimulate:
    def test_writes_trajectory(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out),
                   "--n-steps", "50"])
        assert rc == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,x_0,reward"
        assert len(lines) == 51

    def test_zero_noise_descent(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out),
                   "--n-steps", "3", "--x0", "20", "--zero-noise"])
        assert rc == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        xs = [float(r.split(",")[1]) for r in rows]
        assert xs[0] == 20.0
        assert xs[1] == pytest.approx(18.0, rel=1e-15)
        assert xs[2] == pytest.approx(16.2, rel=1e-15)

    def test_seed_changes_output(self, tmp_path):
        cfg = make_config(tmp_path)
        out_a, out_b, out_c = (tmp_path / x for x in "abc")
        main(["simulate", "--config", cfg, "--out", str(out_a),
              "--seed", "1"])
        main(["simulate", "--config", cfg, "--out", str(out_b),
              "--seed", "1"])
        main(["simulate", "--config", cfg, "--out", str(out_c),
              "--seed", "2"])
        a = (out_a / "trajectory.csv").read_bytes()
        assert a == (out_b / "trajectory.csv").read_bytes()
        assert a != (out_c / "trajectory.csv").read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "o")]) == 2
        assert main(["simulate", "--config",
                     str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_x0_exits_2(self, tmp_path):
        cfg = make_config(tmp_path)
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--x0", "a,b"]) == 2
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--x0", "1,2"]) == 2
        for x0 in ("nan", "inf", "-inf"):
            for n_steps in ("1", "50"):
                assert main(["simulate", "--config", cfg, "--out", out,
                             f"--x0={x0}", "--n-steps", n_steps]) == 2
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_divergence_exits_1(self, tmp_path):
        cfg = make_config(tmp_path, gamma_root=3.0, c_root=3.0)
        rc = main(["simulate", "--config", cfg,
                   "--out", str(tmp_path / "o"), "--n-steps", "1000"])
        assert rc == 1

    def test_overflowing_start_is_one_error_line(self, tmp_path, capsys):
        # The start state's squared norm overflows: one error line at step
        # 0, no overflow warning, no trajectory, however long the run.
        for n_steps in ("50", "1"):
            rc = main(["simulate", "--config", str(POLY4_JSON), "--x0",
                       "1e300,1e300", "--n-steps", n_steps,
                       "--out", str(tmp_path / "o")])
            assert rc == 1
            assert capsys.readouterr().err == (
                "error: state norm inf exceeded the divergence guard at "
                "step 0\n")
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        env_out = tmp_path / "envout"
        monkeypatch.setenv("SLDSIM_OUT", str(env_out))
        assert main(["simulate", "--config", cfg,
                     "--n-steps", "5"]) == 0
        assert (env_out / "trajectory.csv").is_file()

    def test_out_dir_default_is_cwd_relative(self, tmp_path,
                                             monkeypatch):
        cfg = make_config(tmp_path)
        monkeypatch.delenv("SLDSIM_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", cfg,
                     "--n-steps", "5"]) == 0
        assert (tmp_path / "sldsim-out" / "trajectory.csv").is_file()


class TestCliCertify:
    def test_benchmark_certificate(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["certify", "--config", cfg, "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS (< 1)" in text
        assert "quadratic drift spot check   PASS" in text
        assert "scaled drift spot check      PASS" in text

        data = json.loads((out / "certificate.json").read_text())
        assert data["gamma"] == pytest.approx(0.81, rel=1e-14)
        assert data["c"] == pytest.approx(4.0, rel=1e-14)
        assert data["k"] == pytest.approx(401.0, rel=1e-14)
        assert data["r_hat"] == pytest.approx(5211.176088369072,
                                              rel=1e-12)
        assert data["s_radius"] == pytest.approx(math.sqrt(804.0),
                                                 rel=1e-14)
        assert data["lambda"] == pytest.approx(0.905, rel=1e-14)
        assert data["k2"] == pytest.approx(1609.5, rel=1e-14)
        assert data["log_beta"] == pytest.approx(
            -0.5 * math.log(2 * math.pi) - 3618.0, rel=1e-14)
        assert data["max_gain"] == pytest.approx(2.0, rel=1e-14)
        assert data["operational"]["radius"] == pytest.approx(
            2.0 / 3.0, rel=1e-14)
        assert data["operational"]["beta"] == pytest.approx(
            0.053990966513188056, rel=1e-13)
        spot = data["drift_spot_check"]
        assert spot["samples"] == 1000
        assert spot["quadratic_violations"] == 0
        assert spot["scaled_violations"] == 0

    def test_certificate_json_leads_with_the_certificate_fields(self,
                                                                tmp_path):
        # The Certificate fields in declaration order, lam written as
        # "lambda", then the operational pair and the drift spot check.
        out = tmp_path / "out"
        assert main(["certify", "--config", make_config(tmp_path),
                     "--out", str(out)]) == 0
        data = json.loads((out / "certificate.json").read_text())
        assert list(data.items())[:11] == [
            ("n", 1), ("rho_ball", 10.0), ("gamma", 0.81), ("c", 4.0),
            ("k", 401.0), ("r_hat", 5211.176088369072),
            ("s_radius", 28.35489375751565), ("lambda", 0.905),
            ("k2", 1609.5), ("log_beta", -3618.9189385332047),
            ("max_gain", 2.0)]
        assert list(data)[11:] == ["operational", "drift_spot_check"]

    @pytest.mark.parametrize("base, edit", [
        ("poly4", lambda d: d["regions"][0].update(
            declared_unbounded="false")),
        ("poly4", lambda d: d.update(normalise_reward=True)),
        ("poly4", lambda d: d.update(n=2.7)),
        ("poly4", lambda d: d.update(rho=math.nan)),
        # Every number is a JSON number: a bool or a string is no 1.0.
        ("readme", lambda d: d["regions"][0].update(r_lo=True)),
        ("readme", lambda d: d["regions"][1].update(r_hi=True)),
        ("readme", lambda d: d["regions"][0].update(r_lo="10")),
        ("readme", lambda d: d["A"][1][0].__setitem__(0, True)),
        ("readme", lambda d: d["B"][0][0].__setitem__(0, "0")),
        ("readme", lambda d: d["pi"][0].__setitem__(0, False)),
        ("readme", lambda d: d["Q"][0].__setitem__(0, True)),
        ("readme", lambda d: d["R"][0].__setitem__(0, "1")),
        ("poly4", lambda d: d["regions"][0]["L"][0].__setitem__(0, True)),
        ("poly4", lambda d: d["regions"][0]["C"].__setitem__(0, False)),
        # Every matrix entry is finite (JSON NaN, Infinity and 1e400 parse).
        ("readme", lambda d: d["pi"][0].__setitem__(0, math.nan)),
        ("readme", lambda d: d["pi"][0].__setitem__(0, math.inf)),
        ("poly4", lambda d: d["regions"][0]["C"].__setitem__(0, math.nan)),
        ("poly4", lambda d: d["regions"][0]["L"][0].__setitem__(0, math.inf)),
        ("readme", lambda d: d["A"][1][0].__setitem__(0, 10**400)),
        # Q and R are matrices, not scalars.
        ("readme", lambda d: d.update(Q=5)),
        ("readme", lambda d: d.update(R=5)),
    ], ids=["string-flag", "unknown-key", "float-n", "nan-rho",
            "bool-r_lo", "bool-r_hi", "string-r_lo", "bool-A", "string-B",
            "bool-pi", "bool-Q", "string-R", "bool-L", "bool-C",
            "nan-pi", "inf-pi", "nan-C", "inf-L", "huge-int-A",
            "scalar-Q", "scalar-R"])
    def test_misread_config_exits_2(self, base, edit, tmp_path, capsys):
        # "readme" is the README's model config: the n = 1 case study.
        source = (POLY4_JSON if base == "poly4"
                  else Path(make_config(tmp_path, name="readme.json")))
        data = json.loads(source.read_text())
        edit(data)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_uncertifiable_exits_3(self, tmp_path):
        cfg = make_config(tmp_path, gamma_root=1.1)
        assert main(["certify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3

    def test_misdeclared_region_exits_2(self, tmp_path, capsys):
        # Region 0 is a quadrant, which reaches outside every ball.
        data = json.loads(POLY4_JSON.read_text())
        data["regions"][0]["declared_unbounded"] = False
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: region 0: ") and err.count("\n") == 1

    def test_polyhedron_past_the_subset_cap_exits_2(self, tmp_path, capsys):
        # Deciding reach enumerates C(m + 1, n) row subsets of an (m, n)
        # polyhedron; one past the cap is refused, not sampled.
        n = 5
        m = next(m for m in range(n, 100)
                 if math.comb(m + 1, n) > _MAX_SUBSETS)
        L = np.random.default_rng(0).standard_normal((m, n))
        data = {"n": n, "p": 1,
                "regions": [{"kind": "polyhedral", "L": L.tolist(),
                             "C": [1.0] * m, "declared_unbounded": True},
                            {"kind": "radial", "r_lo": 0.0, "r_hi": None,
                             "declared_unbounded": None}],
                "A": [np.zeros((n, n)).tolist()] * 2,
                "B": [np.zeros((n, 1)).tolist()] * 2,
                "pi": np.zeros((1, n)).tolist(), "Q": np.eye(n).tolist(),
                "R": [[1.0]], "rho": 10.0}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: region 0: deciding reach takes "
                              f"{math.comb(m + 1, n)} row subsets")


class TestCliEstimate:
    def test_operational_estimate(self, tmp_path):
        cfg = make_config(tmp_path, c_root=CONTRACT_C_ROOT)
        out = tmp_path / "out"
        rc = main(["estimate", "--config", cfg, "--out", str(out),
                   "--n-steps", "2000"])
        assert rc == 0

        summary = json.loads((out / "estimate.json").read_text())
        assert summary["horizon"] == 2000
        assert summary["beta_mode"] == "operational"
        assert summary["blocks"] >= 30
        assert summary["standard_error"] is not None
        assert 0.5 < summary["reward_timeavg"] < 1.5

        lines = (out / "blocks.csv").read_text().splitlines()
        assert lines[0] == "m,tau_m,T_m,block_reward_sum"
        assert len(lines) == summary["blocks"] + 1
        # Each row is the log's block and its reward sum, recomputed on
        # the command's stream.
        sys = contracting_system(1)
        rng = np.random.default_rng(
            np.random.SeedSequence(0, spawn_key=(cli._ESTIMATE_TAG,)))
        log = simulate_regenerative(sys.cl, sys.model,
                                    operational_minorization(sys.cert), 2000,
                                    rng)
        r = rewards_of(log.states, sys.spec)
        rows = [line.split(",") for line in lines[1:]]
        assert [tuple(map(int, row[:3])) for row in rows] == [
            (m, lo, hi - lo) for m, (lo, hi) in enumerate(log.blocks, 1)]
        assert [float(row[3]) for row in rows] == pytest.approx(
            [float(np.sum(r[lo:hi])) for lo, hi in log.blocks], rel=1e-12)

    def test_certified_beta_mode_on_mild_chain(self, tmp_path):
        cfg = make_config(tmp_path, gamma_root=0.1, c_root=0.1, rho=1.0)
        out = tmp_path / "out"
        rc = main(["estimate", "--config", cfg, "--out", str(out),
                   "--n-steps", "3000", "--beta-mode", "certified"])
        assert rc == 0
        summary = json.loads((out / "estimate.json").read_text())
        assert summary["beta_mode"] == "certified"
        # Certified constant for this chain: D = s (1 + max gain).
        s = math.sqrt(2.0 * (1.0 + 0.01 + 1.0))
        d = s * 1.1
        assert summary["log_beta"] == pytest.approx(
            -0.5 * math.log(2 * math.pi) - 0.5 * d * d, rel=1e-12)
        assert summary["blocks"] >= 30

    def test_underflowing_beta_exits_2(self, tmp_path, capsys):
        # The benchmark chain's certified constant is exp(-3624): zero.
        cfg = make_config(tmp_path)
        rc = main(["estimate", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--beta-mode", "certified"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "underflows to 0" in err and err.count("\n") == 1

    def test_op_radius_override(self, tmp_path):
        cfg = make_config(tmp_path, c_root=CONTRACT_C_ROOT)
        out = tmp_path / "out"
        rc = main(["estimate", "--config", cfg, "--out", str(out),
                   "--n-steps", "2000", "--op-radius", "0.5"])
        assert rc == 0
        summary = json.loads((out / "estimate.json").read_text())
        sys = build_system(1, c_root=CONTRACT_C_ROOT)
        expect = operational_minorization(sys.cert, radius=0.5)
        assert summary["log_beta"] == pytest.approx(expect.log_beta,
                                                    rel=1e-13)

    def test_op_radius_with_certified_mode_exits_2(self, tmp_path, capsys):
        rc = main(["estimate", "--config", str(POLY4_JSON),
                   "--out", str(tmp_path / "o"), "--beta-mode", "certified",
                   "--op-radius", "0.01"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--op-radius" in err and err.count("\n") == 1
        assert not (tmp_path / "o" / "estimate.json").exists()

    @pytest.mark.parametrize("x0", ["nan", "inf"])
    def test_non_finite_x0_exits_2(self, x0, tmp_path, capsys):
        cfg = make_config(tmp_path, c_root=CONTRACT_C_ROOT)
        assert main(["estimate", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--n-steps", "500",
                     "--x0", x0]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --x0") and err.count("\n") == 1

    def test_given_start_state(self, tmp_path):
        cfg = make_config(tmp_path, c_root=CONTRACT_C_ROOT)
        rc = main(["estimate", "--config", cfg,
                   "--out", str(tmp_path / "o"),
                   "--n-steps", "500", "--x0", "0.3"])
        assert rc == 0

    def test_seed_reproducibility(self, tmp_path):
        cfg = make_config(tmp_path, c_root=CONTRACT_C_ROOT)
        outs = [tmp_path / x for x in "ab"]
        for out in outs:
            assert main(["estimate", "--config", cfg,
                         "--out", str(out), "--n-steps", "500",
                         "--seed", "3"]) == 0
        a = (outs[0] / "estimate.json").read_bytes()
        assert a == (outs[1] / "estimate.json").read_bytes()

    def test_no_regenerations_is_one_warning_line(self, tmp_path, capsys):
        # The benchmark chain started at 15 circles the rho ball and never
        # enters the operational set, so the log stops at the horizon.
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["estimate", "--config", cfg, "--out", str(out),
                       "--n-steps", "200", "--x0", "15"])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: no regenerations")
        assert err.count("\n") == 1
        summary = json.loads((out / "estimate.json").read_text())
        assert summary["regenerations"] == 0
        assert summary["standard_error"] is None


class TestCliBound:
    def test_benchmark_defaults(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["bound", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert ("required samples (operational beta) 3900"
                in capsys.readouterr().out)
        header, row = (out / "bound.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["eps"] == "0.5"
        assert cols["delta"] == "0.2"
        assert cols["n_required_operational"] == "3900"
        assert cols["n_steps"] == "3900"
        assert float(cols["total_operational"]) == pytest.approx(
            1884.5061074395599, rel=1e-12)
        assert float(cols["pi_vhat_bound"]) == 201.5

    def test_custom_constants_and_horizon(self, tmp_path):
        cfg = make_config(tmp_path)
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"o1": 2.0}))
        out = tmp_path / "out"
        rc = main(["bound", "--config", cfg, "--out", str(out),
                   "--constants", str(consts), "--n-steps", "100"])
        assert rc == 0
        header, row = (out / "bound.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["n_required_operational"] == "7799"
        assert cols["n_steps"] == "100"

    def test_bad_constants_exit_2(self, tmp_path):
        cfg = make_config(tmp_path)
        out = str(tmp_path / "o")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"o1": -1.0}))
        assert main(["bound", "--config", cfg, "--out", out,
                     "--constants", str(bad)]) == 2
        for i, data in enumerate(({"zeta": 1.0}, {"o1": True}, [1.0],
                                  {"o1": 10**400})):
            misread = tmp_path / f"misread{i}.json"
            misread.write_text(json.dumps(data))
            assert main(["bound", "--config", cfg, "--out", out,
                         "--constants", str(misread)]) == 2

    def test_leading_c_is_an_unknown_constant(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        consts = tmp_path / "consts.json"
        consts.write_text(json.dumps({"o1": 2.0, "leading_c": 1.0}))
        assert main(["bound", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--constants", str(consts)]) == 2
        err = capsys.readouterr().err
        assert "leading_c" in err and err.count("\n") == 1


class TestCliBoundary:
    """Flag values the parser accepts at the edge of the double range or
    of memory give their documented exit code, one error line and no
    traceback (``main`` returns instead of raising)."""

    # The README model: the n = 1 case study, gains 0.9 and 0.5.  With
    # rho at 1e160 (and inner gain 2), rho^2 overflows a double.
    README = {"c_root": 0.5}
    HUGE_RHO = {"c_root": 2.0, "rho": 1e160}
    # K = 4e300 is finite, but 1 - gamma is 1.1e-16: r_hat overflows.
    NEAR_ONE = {"gamma_root": 0.99999999999999994, "c_root": 2.0,
                "rho": 1e150}

    @pytest.mark.parametrize("argv, code, model", [
        (["bound", "--x0-norm-sq", "1e300"], 0, README),
        (["bound", "--eps", "1e-100"], 0, README),
        (["bound", "--n-steps", str(10**110)], 0, README),
        (["bound", "--x0-norm-sq", "1e308"], 2, README),
        (["bound", "--eps", "1e-200"], 2, README),
        (["bound", "--n-steps", str(10**400)], 2, README),
        # Arrays past the 47-bit address space: refused, never allocated,
        # and past 2**63 bytes or rows numpy cannot size them at all.
        (["simulate", "--n-steps", str(10**14)], 2, README),
        (["estimate", "--n-steps", str(10**14)], 2, README),
        (["simulate", "--n-steps", str(2 * 10**18)], 2, README),
        (["estimate", "--n-steps", str(10**20)], 2, README),
        (["estimate", "--op-radius", "1e308"], 2, README),
        (["simulate", "--x0", "1e308"], 1, README),
        (["certify"], 2, HUGE_RHO),
        (["certify"], 2, NEAR_ONE),
        (["bound"], 2, HUGE_RHO),
        (["estimate"], 2, HUGE_RHO),
    ], ids=["bound-x0-1e300", "bound-eps-1e-100", "bound-n-1e110",
            "bound-x0-1e308", "bound-eps-1e-200", "bound-n-1e400",
            "simulate-n-1e14", "estimate-n-1e14", "simulate-n-2e18",
            "estimate-n-1e20", "estimate-radius-1e308", "simulate-x0-1e308",
            "certify-rho-1e160", "certify-r-hat-overflow",
            "bound-rho-1e160", "estimate-rho-1e160"])
    def test_extreme_flag_values(self, argv, code, model, tmp_path, capsys):
        cfg = make_config(tmp_path, **model)
        out = tmp_path / "o"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error:") and err.count("\n") == 1
            assert not out.exists()
        else:
            _, row = (out / "bound.csv").read_text().splitlines()
            assert all(math.isfinite(float(v)) for v in row.split(","))


class TestCliSweeps:
    PIPE = {"sweep": {"dims": [1], "gammas": [0.5, 0.9],
                      "gamma_dims": [1], "trials": 2,
                      "eps_stop": 0.01}}

    def write_cfg(self, tmp_path):
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(self.PIPE))
        return str(p)

    def test_sweep_dim(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep-dim", "--config", cfg, "--out", str(out)])
        assert rc == 0
        raw = (out / "dimension_raw.csv").read_text().splitlines()
        assert raw[0] == "n,gamma,trial,N_pseudo,censored,seed"
        assert len(raw) == 3
        assert (out / "dimension_agg.csv").is_file()
        assert (out / "manifest.json").is_file()

    def test_sweep_gamma_flat_config(self, tmp_path):
        # The sweep section may be given without the wrapper object.
        p = tmp_path / "flat.json"
        p.write_text(json.dumps(self.PIPE["sweep"]))
        out = tmp_path / "out"
        rc = main(["sweep-gamma", "--config", str(p),
                   "--out", str(out)])
        assert rc == 0
        raw = (out / "gamma_raw.csv").read_text().splitlines()
        assert len(raw) == 5  # 2 gammas x 2 trials + header

    def test_flag_overrides(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep-dim", "--config", cfg, "--out", str(out),
                   "--trials", "1"])
        assert rc == 0
        raw = (out / "dimension_raw.csv").read_text().splitlines()
        assert len(raw) == 2

    def test_seed_override_changes_trials(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep-dim", "--config", cfg, "--out", str(out_a),
                     "--seed", "1"]) == 0
        assert main(["sweep-dim", "--config", cfg,
                     "--out", str(out_b)]) == 0
        assert ((out_a / "dimension_raw.csv").read_bytes()
                != (out_b / "dimension_raw.csv").read_bytes())

    def test_bad_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"sweep": {"bogus": 1}}))
        assert main(["sweep-dim", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        # A model config is named as one, not as unknown sweep keys.
        capsys.readouterr()
        assert main(["sweep-dim", "--config", make_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "is a model config" in err and err.count("\n") == 1

    def test_missing_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep-dim", "--config", str(tmp_path / "absent.json"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        pytest.param({"gamma_dims": [0]}, id="gamma_dims-zero"),
        pytest.param({"gamma_dims": [10, 10]}, id="gamma_dims-repeated"),
        pytest.param({"dims": [1.5]}, id="dims-float"),
        pytest.param({"dims": 5}, id="dims-not-a-list"),
        pytest.param({"trials": 1.5}, id="trials-float"),
        pytest.param({"max_steps": 0}, id="max_steps-zero"),
        pytest.param({"gammas": [0.5, math.inf]}, id="gammas-infinite"),
        pytest.param({"eps_stop": math.nan}, id="eps_stop-nan"),
        pytest.param({"master_seed": -1}, id="master_seed-negative"),
        pytest.param({"max_steps": 2**70}, id="max_steps-2-to-70"),
        pytest.param({"rho_ball": 1e160}, id="rho_ball-1e160"),
    ])
    @pytest.mark.parametrize("entry", ["run_pipeline", "sweep-dim",
                                       "sweep-gamma"])
    def test_bad_sweep_input_exits_2_with_one_line(self, entry, fields,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        # Refused before any cell steps a chain.
        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep cell stepped")

        monkeypatch.setattr("sldsim.sweep.lockstep", unreachable)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"sweep": fields}))
        out = tmp_path / "o"
        rc = (run_pipeline(p, out) if entry == "run_pipeline"
              else main([entry, "--config", str(p), "--out", str(out)]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["run_pipeline", "sweep-cli"])
    @pytest.mark.parametrize("kind, key", [("dimension", "dims"),
                                           ("gamma", "gamma_dims")])
    def test_unsizable_dimension_exits_2_with_one_line(self, kind, key,
                                                       entry, tmp_path,
                                                       capsys):
        # np.eye(10**12) is too big for numpy to size; nothing is
        # allocated, and it reads as out of memory, not a traceback.
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"sweep": {key: [10**12], "trials": 2},
                                 "run": [kind]}))
        out = tmp_path / "o"
        command = {"dimension": "sweep-dim", "gamma": "sweep-gamma"}[kind]
        rc = (run_pipeline(p, out) if entry == "run_pipeline"
              else main([command, "--config", str(p), "--out", str(out)]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_golden_file_matches_run_pipeline(self, tmp_path):
        # Both entry points resolve the same config and write the same
        # dimension CSVs, config and result block.
        golden = Path(__file__).parent / "data" / "golden_pipeline.json"
        assert run_pipeline(golden, tmp_path / "pipe") == 0
        assert main(["sweep-dim", "--config", str(golden),
                     "--out", str(tmp_path / "cli")]) == 0
        for name in ("dimension_raw.csv", "dimension_agg.csv"):
            assert (tmp_path / "pipe" / name).read_bytes() == (
                tmp_path / "cli" / name).read_bytes()
        pipe, got = (json.loads((tmp_path / d / "manifest.json").read_text())
                     for d in ("pipe", "cli"))
        assert got["sweep_config"] == pipe["sweep_config"]
        assert got["config_sha256"] == pipe["config_sha256"]
        assert got["results"] == pipe["results"][:1]
        assert got["results"][0]["kind"] == "dimension"

    def test_flags_are_in_the_manifest(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        manifests = []
        for trials in ("1", "2"):
            out = tmp_path / trials
            assert main(["sweep-dim", "--config", cfg, "--out", str(out),
                         "--trials", trials]) == 0
            manifests.append((out / "manifest.json").read_text())
        assert manifests[0] != manifests[1]
        assert [json.loads(m)["sweep_config"]["trials"]
                for m in manifests] == [1, 2]

    def test_manifest_without_config(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep-gamma", "--out", str(out), "--trials", "1",
                     "--eps-stop", "0.01"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] is None
        assert manifest["sweep_config"]["trials"] == 1
        assert manifest["sweep_config"]["gamma_dims"] == [10, 50]
        assert [b["kind"] for b in manifest["results"]] == ["gamma"]
        assert manifest["results"][0]["fit"] is None


class TestCliOutputBytes:
    # Every file the model commands write on poly4, byte for byte.
    SHA256 = {
        "trajectory.csv":
            "86a6ba4ee10e1d1dec28ee3daabd3b5b0fdcc71728ad56821f9b4db3c5b57603",
        "certificate.json":
            "e999f16ac2a6aa0608678624e49ae18f2d041e5b9f946fb8baa97be9b2de915f",
        "estimate.json":
            "ce9314e2ffe7ea31c14b41ac294c19e612f04f9fc1e822b26d595e567143579b",
        "blocks.csv":
            "70950dd05a57c43caa76e96db0f15f95148b4d25ccc1a4a4d0c881560c1ec937",
        "bound.csv":
            "ff91dc0517ce5acf882ebd99dfc25a8cc56885e66ce4724da8f94e83b9d67808",
    }

    def test_outputs_are_pinned(self, tmp_path, capsys):
        common = ["--config", str(POLY4_JSON), "--out", str(tmp_path)]
        for argv in (["simulate", "--n-steps", "200", "--seed", "5"],
                     ["certify"],
                     ["estimate", "--n-steps", "20000", "--seed", "3"],
                     ["bound"]):
            assert main(argv + common) == 0
        got = {name: sha256_of_file(tmp_path / name) for name in self.SHA256}
        assert got == self.SHA256

    def test_certified_estimate_is_pinned(self, tmp_path):
        assert main(["estimate", "--beta-mode", "certified",
                     "--n-steps", "20000", "--seed", "3",
                     "--config", str(POLY4_JSON), "--out", str(tmp_path)]) == 0
        got = {name: sha256_of_file(tmp_path / name)
               for name in ("estimate.json", "blocks.csv")}
        assert got == {
            "estimate.json": "5f810dd0ea0f6bb0f81d0c4fd12fb5af"
                             "2224bc9b62b14ef951e280226d410b2a",
            "blocks.csv": "e9df7407897eaddb412ebda086a0649c"
                          "bd71244ee81e33aa43589740feb1f8f4",
        }


class TestCliParser:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n-steps", "0"],
        ["simulate", "--seed", "-1"],
        ["estimate", "--n-steps", "1"],
        ["estimate", "--op-radius", "-1"],
        ["bound", "--eps", "0"],
        ["bound", "--n-steps", "-3"],
        ["bound", "--delta", "1.5"],
        ["bound", "--x0-norm-sq", "nan"],
        ["sweep-dim", "--trials", "0"],
        ["sweep-gamma", "--eps-stop", "-1e-3"],
        ["bound", "--full-scale"],
        ["simulate", "--n-steps", "many"],
    ])
    def test_bad_flag_exits_2_with_one_line(self, argv, tmp_path, capsys):
        cfg = make_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and argv[1] in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("exc, code", [
        (ConfigError("bad"), 2),
        (NotCertifiable(gamma=1.5, region_index=0), 3),
        (FileNotFoundError("gone"), 4),
        (DivergenceError(step_index=3, norm=math.inf), 1),
        (ClassificationConflict(0, "declared bounded"), 2),
        (UncoveredExterior("no region meets the exterior"), 2),
        (MemoryError("Unable to allocate 728. TiB"), 2),
    ])
    def test_one_error_mapping(self, exc, code, capsys):
        assert report_error(exc) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_command_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
