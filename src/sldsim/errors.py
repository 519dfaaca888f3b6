"""Exception hierarchy for the sldsim package.

Every error raised by the library derives from ``SldsimError`` so callers
can catch the whole family with one clause. Exceptions carry the offending
values as attributes where that helps diagnosis.
"""

from __future__ import annotations

import sys


class SldsimError(Exception):
    """Base class for all sldsim errors."""


class NoRegion(SldsimError):
    """No region of the model contains the given state (invalid partition)."""

    def __init__(self, x) -> None:
        self.x = x
        super().__init__(f"no region contains state {x!r}")


class DivergenceError(SldsimError):
    """A trajectory left the numerically representable range."""

    def __init__(self, step_index: int, norm: float) -> None:
        self.step_index = step_index
        self.norm = norm
        super().__init__(
            f"state norm {norm:.3e} exceeded the divergence guard at step {step_index}"
        )


class ClassificationConflict(SldsimError):
    """A region's ``declared_unbounded`` contradicts its classification."""

    def __init__(self, region_index: int, detail: str) -> None:
        self.region_index = region_index
        super().__init__(f"region {region_index}: {detail}")


class UncoveredExterior(SldsimError):
    """No region intersects the exterior of the classification ball."""


class NotCertifiable(SldsimError):
    """The contraction hypothesis fails: some exterior gain has norm >= 1."""

    def __init__(self, gamma: float, region_index: int) -> None:
        self.gamma = gamma
        self.region_index = region_index
        super().__init__(
            f"gamma = {gamma!r} >= 1 (squared spectral norm of region "
            f"{region_index}); the chain need not be geometrically ergodic"
        )


class MinorizationViolation(SldsimError):
    """P(x, A) fell below beta * nu(A) for a checked pair."""


class NoRegeneration(SldsimError):
    """The log contains no regeneration usable for the requested quantity."""


class MaxStepsExceeded(SldsimError):
    """The stopping rule did not fire within the step cap (censored run)."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        super().__init__(f"stopping rule did not fire within {cap} steps")


class ConfigError(SldsimError):
    """A configuration file is missing, unreadable, or malformed, or a
    polyhedron in it has too many row subsets to classify."""


# (failures, exit code, message prefix); the first match wins.  A region
# split that contradicts its declarations is a misdeclared model config,
# and an array too large to allocate comes from a requested size.
_EXIT_CODES = (((ConfigError, ClassificationConflict, UncoveredExterior), 2,
                ""),
               (MemoryError, 2, "out of memory: "),
               (NotCertifiable, 3, "certification failed: "),
               (OSError, 4, "cannot read or write files: "),
               (SldsimError, 1, ""))


def report_error(exc: SldsimError | OSError | MemoryError) -> int:
    """Print ``exc`` as one line on stderr; return its exit code."""
    code, prefix = next((code, prefix) for kind, code, prefix in _EXIT_CODES
                        if isinstance(exc, kind))
    print(f"error: {prefix}{exc}", file=sys.stderr)
    return code
