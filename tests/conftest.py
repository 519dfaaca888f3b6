"""Shared fixtures and helpers for the test suite.

``build_system`` assembles the two-shell benchmark family end to end
(model, policy, reward, closed loop, certificate); ``zero_system`` is the
degenerate i.i.d. chain whose steady state is known in closed form. The
acceptance tests register one human-readable verdict line per criterion,
echoed in a terminal section at the end of the run.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from sldsim import (
    Certificate,
    ClosedLoop,
    DivergenceError,
    Policy,
    RewardSpec,
    SldsModel,
    build_case_study,
    certify,
    classify_regions,
    closed_loop,
    polyhedron,
    radial_shell,
    region_of,
)
from sldsim.model import DIVERGENCE_LIMIT

# Two-shell benchmark constants: root gain 0.9 outside the rho ball,
# root gain 2 inside, ball radius 10. The certificate then reads
# gamma = 0.81, c = 4, K = n + 400.
CASE_GAMMA_ROOT = 0.9
CASE_C_ROOT = 2.0
CASE_RHO = 10.0

# Contracting variant: inner root gain 0.5, so the chain visits the
# origin-centered operational small set and actually regenerates. The
# benchmark values above orbit the ball boundary and never do.
CONTRACT_C_ROOT = 0.5


class System(NamedTuple):
    model: SldsModel
    policy: Policy
    spec: RewardSpec
    cl: ClosedLoop
    cert: Certificate


def region_contains(region, x) -> bool:
    """Whether ``region`` holds the state ``x``, by the per-region rule
    that the package's ``Region.contains`` used to apply; the oracle of
    the region table."""
    if region.kind == "radial":
        r = float(np.linalg.norm(x))
        if region.r_lo == 0.0:
            return r <= region.r_hi
        return region.r_lo < r <= region.r_hi
    return bool(np.all(region.L @ x <= region.C))


@np.errstate(over="ignore", invalid="ignore")
def stepwise_path(cl, model, x0, n_steps, rng, zero_noise=False, t0=0):
    """The states of one chain by a per-step loop that checks each state's
    norm as it comes, ``x0`` first; the oracle of ``model._path``, with its
    signature.  Each mean is the ``matmul`` product ``Ahat_j @ x``, and
    each step draws its own ``standard_normal(n)`` noise.  Raises where
    that check or ``region_of`` fails first."""
    x = np.asarray(x0, dtype=float)
    states = []
    for t in range(n_steps):
        if t:
            mean = cl.ahat[region_of(model, x)] @ x
            x = mean if zero_noise else mean + rng.standard_normal(model.n)
        norm = math.sqrt(x.dot(x))
        if not norm <= DIVERGENCE_LIMIT:
            raise DivergenceError(step_index=t0 + t, norm=norm)
        states.append(x)
    return np.array(states)


def build_system(n: int, gamma_root: float = CASE_GAMMA_ROOT,
                 c_root: float = CASE_C_ROOT,
                 rho: float = CASE_RHO) -> System:
    model, policy, spec = build_case_study(n, gamma_root, c_root, rho)
    cl = closed_loop(model, policy)
    classification = classify_regions(model, rho)
    cert = certify(cl, classification, rho, n)
    return System(model, policy, spec, cl, cert)


def contracting_system(n: int) -> System:
    return build_system(n, c_root=CONTRACT_C_ROOT)


def zero_system(n: int = 1) -> System:
    """Identically zero dynamics: states are i.i.d. N(0, I)."""
    model = SldsModel(n=n, p=1, regions=(radial_shell(0.0, math.inf),),
                      dynamics=((np.zeros((n, n)), np.zeros((n, 1))),))
    policy = Policy(pi=np.zeros((1, n)))
    spec = RewardSpec.bind(Q=np.eye(n), R=np.eye(1), policy=policy)
    cl = closed_loop(model, policy)
    cert = certify(cl, classify_regions(model, 1.0), 1.0, n)
    return System(model, policy, spec, cl, cert)


def _scaled(rng, n, norm):
    m = rng.standard_normal((n, n))
    return norm * m / np.linalg.norm(m, 2)


def dense_shells(n):
    """Three radial shells with dense dynamics (contracting outside,
    expanding in the middle), feedback and a non-identity reward; the
    radii grow with the noise norm, so chains visit every shell."""
    rng = np.random.default_rng(100 + n)
    r1, r2 = math.sqrt(n), 2.5 * math.sqrt(n)
    model = SldsModel(
        n=n, p=1,
        regions=(radial_shell(0.0, r1), radial_shell(r1, r2),
                 radial_shell(r2, math.inf)),
        dynamics=tuple((_scaled(rng, n, g), rng.standard_normal((n, 1)))
                       for g in (0.8, 1.3, 0.6)))
    policy = Policy(pi=0.05 * rng.standard_normal((1, n)))
    q = rng.standard_normal((n, n))
    spec = RewardSpec.bind(Q=q @ q.T + np.eye(n), R=np.eye(1),
                           policy=policy)
    return model, closed_loop(model, policy), spec


def quadrants():
    """Four polyhedral quadrants in 2-D, each with its own dense gain."""
    rng = np.random.default_rng(7)
    signs = ((-1, -1), (1, -1), (1, 1), (-1, 1))
    model = SldsModel(
        n=2, p=1,
        regions=tuple(polyhedron(np.diag(sg), np.zeros(2), True)
                      for sg in signs),
        dynamics=tuple((_scaled(rng, 2, g), np.zeros((2, 1)))
                       for g in (0.5, 0.7, 0.9, 0.6)))
    policy = Policy(pi=np.zeros((1, 2)))
    spec = RewardSpec.bind(Q=np.eye(2), R=np.eye(1), policy=policy)
    return model, closed_loop(model, policy), spec


def poly4(worst=None):
    """The four-quadrant model of the benchmark's estimate workload: the
    closed quadrants overlap on the axes, so the first declared wins.
    ``worst`` replaces the dynamics of region 3, the worst gain (0.7)."""
    signs = ((1, 1), (-1, 1), (-1, -1), (1, -1))
    a = [np.array([[0.5, 0.1], [0.0, 0.45]]),
         np.array([[0.55, 0.0], [0.15, 0.5]]),
         np.array([[0.65, 0.1], [-0.1, 0.6]]),
         np.diag([0.7, 0.6]) if worst is None else np.asarray(worst)]
    model = SldsModel(
        n=2, p=1,
        regions=tuple(polyhedron(np.diag(-np.array(sg, dtype=float)),
                                 np.zeros(2), True) for sg in signs),
        dynamics=tuple((m, np.zeros((2, 1))) for m in a))
    policy = Policy(pi=np.zeros((1, 2)))
    spec = RewardSpec.bind(Q=np.eye(2), R=np.eye(1), policy=policy)
    return model, closed_loop(model, policy), spec


def batch_se(values: np.ndarray, n_batches: int = 100) -> float:
    """Standard error of the mean via batch means; valid under the
    serial correlation of a Markov trajectory once batches are long."""
    values = np.asarray(values, dtype=float)
    m = values.size // n_batches
    if m < 1:
        raise ValueError("too few values for the requested batch count")
    means = values[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


_ACCEPTANCE_LINES: list[str] = []


def record_criterion(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
