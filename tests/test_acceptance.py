"""End-to-end acceptance gate: one test per shipped guarantee.

Each test times itself, records a single PASS/FAIL scoreboard line (the
conftest prints the collected lines after the run), and then asserts, so
a red entry still leaves a readable summary.  Criteria 7 and 8 check the
case-study stopping time against the level-crossing law it follows, not
the dimension or gain shape of the sample bound (README, "Known
limitations"): its mean scales as ``eps_stop**-1/2`` and matches the
law's value for the cell's gain.  Their upper-half fit and rank
correlations are still printed as measurements.
"""
from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from sldsim import (
    BoundConstants,
    Certificate,
    RegenerationLog,
    SweepConfig,
    decompose_sum,
    drift_check,
    estimate_all,
    gaussian_overlap,
    operational_minorization,
    reference_reward_average,
    required_samples,
    rewards_of,
    simulate,
    simulate_regenerative,
    sweep_dimension,
    sweep_gamma,
    validate_bound,
)
from sldsim.sweep import run_pipeline

from conftest import (
    CASE_RHO,
    batch_se,
    build_system,
    contracting_system,
    record_criterion,
    zero_system,
)

DATA_DIR = Path(__file__).parent / "data"


def _report(index: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record_criterion(f"[{index:2d}/11] {label} ... {status} ({detail})")


def test_01_certificate_arithmetic() -> None:
    t0 = time.perf_counter()
    cert = build_system(1).cert
    gamma, c = 0.81, 4.0
    k = 1.0 + c * CASE_RHO**2
    expected = {
        "gamma": (cert.gamma, gamma),
        "c": (cert.c, c),
        "k": (cert.k, k),
        "r_hat": (cert.r_hat, 2.0 * k / (gamma * (1.0 - gamma))),
        "s_radius": (cert.s_radius, math.sqrt(2.0 * (k + 1.0))),
        "k2": (cert.k2, 1.5 + 2.0 * c + c * c * CASE_RHO**2),
    }
    bad = [name for name, (got, want) in expected.items()
           if got != pytest.approx(want, rel=1e-9)]
    dt = time.perf_counter() - t0
    ok = not bad and dt < 1.0
    _report(1, "certificate constants match closed forms to 1e-9 rel",
            ok, f"r_hat={cert.r_hat:.6f}, {dt:.2f} s")
    assert ok, f"mismatched fields: {bad}, elapsed {dt:.2f} s"


def test_02_drift_exactness() -> None:
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    n_quad = n_scaled = 0
    for n in (1, 2, 10):
        s = build_system(n)
        samples = rng.normal(0.0, 2.0 * CASE_RHO, size=(10_000, n))
        report = drift_check(s.cl, s.model, s.cert, samples)
        assert report.num_samples == 10_000
        n_quad += len(report.quadratic_violations)
        n_scaled += len(report.scaled_violations)
    dt = time.perf_counter() - t0
    ok = n_quad == 0 and n_scaled == 0 and dt < 5.0
    _report(2, "both drift inequalities exact at 10^4 states per model",
            ok, f"violations={n_quad}+{n_scaled}, {dt:.2f} s")
    assert ok, f"{n_quad} quadratic / {n_scaled} scaled violations"


def test_03_split_kernel_preservation() -> None:
    t0 = time.perf_counter()
    s = contracting_system(2)
    minor = operational_minorization(s.cert)
    steps = 100_000
    x0 = np.array([1.0, 0.0])
    plain = simulate(s.cl, s.model, s.spec, x0, steps,
                     np.random.default_rng(31)).states
    log = simulate_regenerative(s.cl, s.model, minor, horizon=steps,
                                rng=np.random.default_rng(32), x0=x0)
    split = log.states[:steps]
    assert log.taus, "split chain never regenerated"

    worst_sigmas = 0.0
    for i in range(2):
        se = math.hypot(batch_se(plain[:, i]), batch_se(split[:, i]))
        gap = abs(float(plain[:, i].mean() - split[:, i].mean()))
        worst_sigmas = max(worst_sigmas, gap / se)
    dev_a = ((plain - plain.mean(axis=0)) ** 2).sum(axis=1)
    dev_b = ((split - split.mean(axis=0)) ** 2).sum(axis=1)
    se_tr = math.hypot(batch_se(dev_a), batch_se(dev_b))
    gap_tr = abs(float(dev_a.mean() - dev_b.mean()))
    worst_sigmas = max(worst_sigmas, gap_tr / se_tr)

    dt = time.perf_counter() - t0
    ok = worst_sigmas <= 4.0 and dt < 30.0
    _report(3, "split chain matches plain kernel (mean, cov trace, 4 SE)",
            ok, f"worst {worst_sigmas:.2f} SE, {len(log.taus)} regens, "
                f"{dt:.1f} s")
    assert ok, f"worst deviation {worst_sigmas:.2f} SE, elapsed {dt:.1f} s"


def test_04_closed_form_reward_oracle() -> None:
    t0 = time.perf_counter()
    s = zero_system(1)
    minor = operational_minorization(s.cert)
    log = simulate_regenerative(s.cl, s.model, minor, horizon=1_000_000,
                                rng=np.random.default_rng(41))
    est = estimate_all(log, s.spec)
    target = math.sqrt(2.0 / math.pi)
    dt = time.perf_counter() - t0
    gap_sigmas = (abs(est.value - target) / est.standard_error
                  if est.standard_error else math.inf)
    ok = gap_sigmas <= 4.0 and dt < 30.0
    _report(4, "regenerative estimate hits sqrt(2/pi) within 4 SE",
            ok, f"{est.value:.6f} vs {target:.6f}, {gap_sigmas:.2f} SE, "
                f"{est.block_count} blocks, {dt:.1f} s")
    assert ok, (f"estimate {est.value} vs {target}, "
                f"{gap_sigmas:.2f} SE, elapsed {dt:.1f} s")


def test_05_decomposition_identity_fuzzed() -> None:
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    spec = zero_system(1).spec
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(20, 200))
        states = rng.standard_normal(length)
        thetas = (rng.random(length) < rng.uniform(0.05, 0.5)).astype(np.uint8)
        thetas[-1] = 1  # guarantees a regeneration past any horizon below
        horizon = int(rng.integers(1, length))
        log = RegenerationLog.from_raw(states, thetas, horizon)
        rho_hat = float(rng.normal())
        dec = decompose_sum(log, spec, rho_hat)
        direct = float(np.sum(rewards_of(log.states[:horizon], spec)
                              - rho_hat))
        err = abs(dec.head + dec.core - dec.tail - direct)
        worst = max(worst, err / (1e-9 * horizon))
    dt = time.perf_counter() - t0
    ok = worst <= 1.0 and dt < 10.0
    _report(5, "head+core-tail identity on 10^3 fuzzed logs (1e-9*N)",
            ok, f"worst {worst:.2e} of budget, {dt:.1f} s")
    assert ok, f"worst relative-to-budget error {worst:.3e}"


def test_06_overlap_quadrature_oracle() -> None:
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(-5.0, 5.0, size=2)
        analytic = gaussian_overlap(np.array([a]), np.array([b]))
        lo, hi = min(a, b) - 12.0, max(a, b) + 12.0
        numeric, _ = integrate.quad(
            lambda x: min(stats.norm.pdf(x - a), stats.norm.pdf(x - b)),
            lo, hi, points=[0.5 * (a + b)], limit=200)
        worst = max(worst, abs(numeric - analytic))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 5.0
    _report(6, "gaussian_overlap matches min-density quadrature to 1e-6",
            ok, f"worst {worst:.2e}, {dt:.1f} s")
    assert ok, f"worst quadrature gap {worst:.3e}"


# After warm-up the stopping rule stops at step k with probability about
# 2 eps_stop f k, where f is the density of the reward at its mean, so N
# is a level-crossing time with E N ~ 0.5 sqrt(pi / (eps_stop f)) (README,
# "Known limitations").  Two checks follow.  Two decades of tolerance move
# N by one decade: a pooled log-log slope near -1/2; a slope near -1 means
# a broken rule, one near 0 a regime where the warm-up from x = 0 swamps
# the crossing.  At the tighter tolerance each cell's mean lies within 25%
# of the law for its gain; the law's coefficient of variation is 0.52, so
# 100 trials give a standard error of about 5%.
TOL_FACTOR = 100.0
SLOPE_RANGE = (-0.6, -0.4)
LAW_RANGE = (0.8, 1.25)


def _pooled_tol_slope(coarse, fine) -> float:
    """log10(sum N_avg at eps / 100 over sum at eps) / -2."""
    ratio = (sum(c.n_avg for c in fine) / sum(c.n_avg for c in coarse))
    return math.log10(ratio) / -math.log10(TOL_FACTOR)


def _crossing_mean(eps_stop: float, density: float) -> float:
    return 0.5 * math.sqrt(math.pi / (eps_stop * density))


def _exterior_density(gain: float) -> float:
    """Density of |x| at its mean for x' = g x + w with w ~ N(0, I) and
    the chain outside the ball: |x| is about normal with variance
    1 / (2 (1 - g^2)), whatever the dimension."""
    return math.sqrt((1.0 - gain * gain) / math.pi)


def _measured_density(n: int, gain: float, cfg: SweepConfig) -> float:
    """Density of |x| at its mean, estimated from 1,000 independent
    two-shell chains (gain ``gain`` outside the ball, ``cfg.c_root``
    inside) over 300 steps after 200 of warm-up, in a window of +-0.1."""
    rng = np.random.default_rng((cfg.master_seed, n, round(gain * 100)))
    x = np.zeros((1000, n))
    r = []
    for step in range(500):
        g = np.where(np.linalg.norm(x, axis=1) > cfg.rho_ball, gain,
                     cfg.c_root)
        x = g[:, None] * x + rng.standard_normal(x.shape)
        if step >= 200:
            r.append(np.linalg.norm(x, axis=1))
    r = np.concatenate(r)
    return float(np.mean(np.abs(r - r.mean()) < 0.1)) / 0.2


def _in_range(value: float, bounds: tuple[float, float]) -> bool:
    return bounds[0] <= value <= bounds[1]


def test_07_dimension_sweep_linear_fit() -> None:
    t0 = time.perf_counter()
    cfg = SweepConfig()
    res = sweep_dimension(cfg)
    fine_cfg = dataclasses.replace(cfg, eps_stop=cfg.eps_stop / TOL_FACTOR)
    fine = sweep_dimension(fine_cfg)
    dt = time.perf_counter() - t0
    slope = _pooled_tol_slope(res.cells, fine.cells)
    # The upper half of the grid sits well outside the ball, where the
    # closed-form density holds and n does not enter it.
    law = _crossing_mean(fine_cfg.eps_stop,
                         _exterior_density(cfg.gamma_root))
    upper = sorted(fine.cells, key=lambda c: c.n)[len(fine.cells) // 2:]
    ratios = [c.n_avg / law for c in upper]
    fit = res.fit
    r2 = fit.r_squared if fit is not None else math.nan
    n_slope = fit.slope if fit is not None else math.nan
    ok = (_in_range(slope, SLOPE_RANGE)
          and all(_in_range(q, LAW_RANGE) for q in ratios) and dt < 600.0)
    _report(7, "dimension sweep: stopping time ~ eps_stop^-1/2, upper half "
               "at the level-crossing mean",
            ok, f"slope={slope:.3f}, N/law={min(ratios):.2f}.."
                f"{max(ratios):.2f} (law {law:.0f}); upper-half "
                f"R^2={r2:.4f}, dN/dn={n_slope:.4f}, {dt:.1f} s")
    assert ok, (f"pooled slope {slope:.3f} (want {SLOPE_RANGE}), N/law "
                f"{[round(q, 3) for q in ratios]} (want {LAW_RANGE}) at "
                f"master seed {cfg.master_seed}, elapsed {dt:.1f} s")


def test_08_gamma_sweep_monotonicity() -> None:
    t0 = time.perf_counter()
    cfg = SweepConfig()
    res = sweep_gamma(cfg)
    fine_cfg = dataclasses.replace(cfg, eps_stop=cfg.eps_stop / TOL_FACTOR)
    fine = sweep_gamma(fine_cfg)
    # Chains that orbit the shell have a wider reward than the exterior
    # law, so the density is measured for every cell.
    ratios = {(c.n, c.gamma): c.n_avg / _crossing_mean(
                  fine_cfg.eps_stop, _measured_density(c.n, c.gamma, cfg))
              for c in fine.cells}
    dt = time.perf_counter() - t0
    slopes = {n: _pooled_tol_slope([c for c in res.cells if c.n == n],
                                   [c for c in fine.cells if c.n == n])
              for n in cfg.gamma_dims}
    rhos = {n: res.spearman.get(n) for n in cfg.gamma_dims}
    ok = (all(_in_range(s, SLOPE_RANGE) for s in slopes.values())
          and all(_in_range(q, LAW_RANGE) for q in ratios.values())
          and dt < 600.0)

    def shown(n: int) -> str:
        qs = [q for (m, _), q in ratios.items() if m == n]
        rho = f"{rhos[n]:.4f}" if rhos[n] is not None else "none"
        return (f"n={n}: slope={slopes[n]:.3f}, N/law={min(qs):.2f}.."
                f"{max(qs):.2f}, Spearman={rho}")

    _report(8, "gamma sweep: stopping time ~ eps_stop^-1/2, every cell "
               "at the level-crossing mean",
            ok, f"{'; '.join(shown(n) for n in cfg.gamma_dims)}, {dt:.1f} s")
    assert ok, (f"pooled slopes {slopes} (want {SLOPE_RANGE}), N/law "
                f"{ {k: round(q, 3) for k, q in ratios.items()} } (want "
                f"{LAW_RANGE}) at master seed {cfg.master_seed}, elapsed "
                f"{dt:.1f} s")


def test_09_bound_scaling_exact_ratios() -> None:
    t0 = time.perf_counter()
    consts = BoundConstants(o3=0.0)

    def toy(n: int = 1, gamma: float = 0.5) -> Certificate:
        return Certificate(n=n, rho_ball=1.0, gamma=gamma, c=0.0,
                           k=float(n), r_hat=1.0, s_radius=1.0,
                           lam=(1.0 + gamma) / 2.0, k2=1.0,
                           log_beta=math.log(0.5), max_gain=1.0)

    def raw(cert: Certificate = toy(), eps: float = 0.5,
            delta: float = 0.25, beta_op: float = 0.5,
            x0_norm_sq: float = 0.0) -> float:
        return required_samples(cert, eps, delta, x0_norm_sq=x0_norm_sq,
                                consts=consts,
                                beta_op=beta_op).raw_operational

    base = raw()
    checks = {
        "base value": base == 64.0,
        "doubling n doubles": raw(cert=toy(n=2)) == 2.0 * base,
        "halving eps quadruples": raw(eps=0.25) == 4.0 * base,
        "halving delta doubles": raw(delta=0.125) == 2.0 * base,
        "halving beta doubles": raw(beta_op=0.25) == 2.0 * base,
        "halving 1-gamma doubles": raw(cert=toy(gamma=0.75)) == 2.0 * base,
        "x0 offset enters numerator": raw(x0_norm_sq=4.0) == 3.0 * base,
        "delta 0.2 vs 0.1": raw(delta=0.1) == 2.0 * raw(delta=0.2),
    }
    bad = [name for name, passed in checks.items() if not passed]
    dt = time.perf_counter() - t0
    ok = not bad and dt < 1.0
    _report(9, "sample bound scaling laws hold as exact float ratios",
            ok, f"{len(checks)} identities, {dt:.2f} s")
    assert ok, f"failed identities: {bad}"


def test_10_bound_validated_empirically() -> None:
    t0 = time.perf_counter()
    s = build_system(1)
    ref_rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(8, 0)))
    rho_star = reference_reward_average(s.cl, s.model, s.spec, 10**8, ref_rng)
    val = validate_bound(s.cl, s.model, s.spec, s.cert,
                         eps=0.5, delta=0.2, trials=200, rho_star=rho_star)
    dt = time.perf_counter() - t0
    ok = val.passed and dt < 900.0
    _report(10, "guaranteed sample count keeps failure rate below delta",
            ok, f"N={val.n_used}, rate={val.failure_rate:.3f} vs "
                f"threshold={val.threshold:.3f}, rho*={rho_star:.4f}, "
                f"{dt:.0f} s")
    assert ok, (f"failure rate {val.failure_rate} vs threshold "
                f"{val.threshold} at N={val.n_used}")


def test_11_pipeline_determinism(tmp_path: Path) -> None:
    t0 = time.perf_counter()
    config = DATA_DIR / "golden_pipeline.json"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = run_pipeline(config, out_a)
    rc_b = run_pipeline(config, out_b)
    assert rc_a == 0 and rc_b == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b and len(names_a) == 5
    differing = [name for name in names_a
                 if (out_a / name).read_bytes() != (out_b / name).read_bytes()]
    dt = time.perf_counter() - t0
    ok = not differing and dt < 120.0
    _report(11, "golden pipeline is byte-identical across reruns",
            ok, f"{len(names_a)} files, {dt:.1f} s")
    assert ok, f"files differ: {differing}"
