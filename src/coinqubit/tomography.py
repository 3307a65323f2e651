"""Monte-Carlo simulation of the three-coin measurement scheme.

Each axis (x, y, z) is an independent biased coin; flips are drawn from a
target state's triple, the triple is re-estimated from frequencies and the
matrix is reconstructed from the estimate.  Sampling noise can push the
estimate outside the correlation ball; that verdict is reported, never
projected away.

Randomness comes from numpy's PCG64 seeded through a SeedSequence built
from (seed, axis index), so the three per-axis streams are independent and
every run is reproducible from the single 64-bit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InsufficientDataError
from .states import (
    DensityMatrix2,
    ProbabilityTriple,
    _require_quantum,
    prob_to_density,
)

# numpy is imported inside the functions that build arrays, so the
# scalar API and the CLI start without loading it.
if TYPE_CHECKING:
    import numpy as np

AXES = ("x", "y", "z")
OUTCOMES = ("up", "down")


@dataclass(frozen=True)
class FlipRecord:
    """One coin flip: which axis, which face, which trial."""

    axis: str
    outcome: str
    trial: int

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.outcome not in OUTCOMES:
            raise ValueError(
                f"outcome must be one of {OUTCOMES}, got {self.outcome!r}"
            )
        if self.trial < 0:
            raise ValueError(f"trial index must be nonnegative, got {self.trial}")


@dataclass(frozen=True)
class EstimateReport:
    """Frequency estimate of a coin triple with per-axis error bars."""

    p_hat: ProbabilityTriple
    counts: tuple[int, int, int]
    std_errors: tuple[float, float, float]
    seed: int | None

    def __post_init__(self) -> None:
        if any(n < 1 for n in self.counts):
            raise InsufficientDataError(
                f"need at least one flip per axis, got counts {self.counts}"
            )


def _axis_rng(seed: int, axis_index: int) -> np.random.Generator:
    import numpy as np

    seq = np.random.SeedSequence(entropy=seed, spawn_key=(axis_index,))
    return np.random.Generator(np.random.PCG64(seq))


def sample_outcomes(
    p: ProbabilityTriple, n_per_axis: int, seed: int
) -> dict[str, np.ndarray]:
    """Boolean "up" arrays per axis; the vectorized core of the simulator."""
    _require_quantum(p, "target state")
    if n_per_axis < 1:
        raise ValueError(f"n_per_axis must be positive, got {n_per_axis}")
    probs = (p.p1, p.p2, p.p3)
    return {
        axis: _axis_rng(seed, i).random(n_per_axis) < probs[i]
        for i, axis in enumerate(AXES)
    }


def sample_flips(
    p: ProbabilityTriple, n_per_axis: int, seed: int
) -> Iterator[FlipRecord]:
    """Yield flips axis-major: all x trials, then y, then z."""
    outcomes = sample_outcomes(p, n_per_axis, seed)
    for axis in AXES:
        for trial, up in enumerate(outcomes[axis]):
            yield FlipRecord(axis, "up" if up else "down", trial)


def estimate(
    flips: Iterable[FlipRecord], seed: int | None = None
) -> EstimateReport:
    """Fold a flip stream into frequency estimates with standard errors."""
    ups = dict.fromkeys(AXES, 0)
    totals = dict.fromkeys(AXES, 0)
    for record in flips:
        totals[record.axis] += 1
        if record.outcome == "up":
            ups[record.axis] += 1
    missing = [axis for axis in AXES if totals[axis] == 0]
    if missing:
        raise InsufficientDataError(
            f"no flips recorded for axis/axes {missing}"
        )
    p_hat = tuple(ups[axis] / totals[axis] for axis in AXES)
    errors = tuple(
        math.sqrt(p_hat[i] * (1.0 - p_hat[i]) / totals[axis])
        for i, axis in enumerate(AXES)
    )
    return EstimateReport(
        p_hat=ProbabilityTriple(*p_hat),
        counts=tuple(totals[axis] for axis in AXES),
        std_errors=errors,
        seed=seed,
    )


def run_experiment(
    p: ProbabilityTriple, n_per_axis: int, seed: int
) -> EstimateReport:
    """Sample and estimate in one vectorized pass."""
    outcomes = sample_outcomes(p, n_per_axis, seed)
    ups = {axis: int(outcomes[axis].sum()) for axis in AXES}
    p_hat = tuple(ups[axis] / n_per_axis for axis in AXES)
    errors = tuple(
        math.sqrt(value * (1.0 - value) / n_per_axis) for value in p_hat
    )
    return EstimateReport(
        p_hat=ProbabilityTriple(*p_hat),
        counts=(n_per_axis,) * 3,
        std_errors=errors,
        seed=seed,
    )


def reconstruct(report: EstimateReport) -> tuple[DensityMatrix2, str]:
    """Matrix from the estimated triple plus its ball verdict.

    The verdict says whether sampling noise pushed the estimate outside
    the correlation ball ('classical') or left it a valid state.
    """
    return prob_to_density(report.p_hat), report.p_hat.classify()
