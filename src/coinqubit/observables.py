"""Dichotomic random variables attached to the three coins.

The x and y coins carry symmetric variables (x, -x) and (y, -y); the z
coin carries (z1, z2).  The Hermitian matrix built from (x, y, z1, z2) is
the quantum observable whose mean against a state equals the sum of the
three classical means.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError
from .states import (
    MEAN_IDENTITY_TOL,
    ProbabilityTriple,
    _Frozen,
    _fma,
    _number_field,
    _require_quantum,
    prob_to_density,
)

# numpy is imported inside the functions that build arrays, so the
# scalar API and the CLI start without loading it.
if TYPE_CHECKING:
    import numpy as np


class CoinObservable(_Frozen):
    """Values of the coin random variables: (x, -x), (y, -y), (z1, z2)."""

    __slots__ = ("x", "y", "z1", "z2")

    def __init__(self, x: float, y: float, z1: float, z2: float) -> None:
        for name, setter, value in zip(self._fields, self._setters, (x, y, z1, z2)):
            try:
                value = float(value)
            except OverflowError:  # an int too large for a float
                raise DomainError(f"{name} overflows a float") from None
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            setter(self, value)

    def matrix(self) -> np.ndarray:
        """Hermitian matrix [[z1, x - i y], [x + i y, z2]]."""
        import numpy as np

        return np.array(
            [[self.z1, self.x - 1j * self.y], [self.x + 1j * self.y, self.z2]]
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoinObservable":
        if not isinstance(data, dict):
            raise DomainError("expected a JSON object with fields x, y, z1, z2")
        fields = ("x", "y", "z1", "z2")
        return cls(*(_number_field(data, name, "observable") for name in fields))


def classical_means(
    obs: CoinObservable, p: ProbabilityTriple
) -> tuple[float, float, float]:
    """Means of the three coin variables; classical triples allowed."""
    mean_x = obs.x * (2.0 * p.p1 - 1.0)
    mean_y = obs.y * (2.0 * p.p2 - 1.0)
    mean_z = obs.z1 * p.p3 + obs.z2 * (1.0 - p.p3)
    return mean_x, mean_y, mean_z


def second_moments(
    obs: CoinObservable, p: ProbabilityTriple
) -> tuple[float, float, float]:
    """Second moments; the x and y moments do not depend on the state.
    Coefficients whose squares overflow are a DomainError."""
    try:
        moment_z = (obs.z1 ** 2 - obs.z2 ** 2) * p.p3 + obs.z2 ** 2
        return obs.x ** 2, obs.y ** 2, moment_z
    except OverflowError as exc:
        raise DomainError(f"a second moment of {obs!r} overflows") from exc


def quantum_mean(obs: CoinObservable, p: ProbabilityTriple) -> float:
    """Tr(rho H), computed by explicit matrix trace.

    Plain floats give np.trace(rho @ H)'s bits: zgemm's fused steps on the
    zero imaginary parts of rho00, z1, rho11 and z2 are exact, so each entry
    keeps two; 0.0 + d11 turns -0.0 into +0.0, as np.trace's sum does.
    The value always equals the sum of the three classical means; the
    identity is checked here so a drift between the two routes cannot go
    unnoticed.  Finite coefficients near the float maximum can overflow
    either route; that is a DomainError, since no finite mean can be
    returned.
    """
    _require_quantum(p)
    means = classical_means(obs, p)
    classical_sum = sum(means)
    if not math.isfinite(classical_sum):
        raise DomainError(f"mean overflows: classical sum {classical_sum}")
    rho = prob_to_density(p)
    h01, h10 = obs.x - 1j * obs.y, obs.x + 1j * obs.y  # as matrix() builds them
    r01, r10 = rho.rho01, rho.rho10
    value = (_fma(r01.real, h10.real, _fma(-r01.imag, h10.imag, rho.rho00 * obs.z1))
             + (0.0 + _fma(rho.rho11, obs.z2,
                           _fma(r10.real, h01.real, -(r10.imag * h01.imag)))))
    if not math.isfinite(value):
        raise DomainError(f"mean overflows: matrix trace {value}")
    gap = abs(value - classical_sum)
    # rounding error scales with the terms, which can cancel in the result
    # and in the z mean; their magnitudes bound |value| and every |mean|
    scale = (abs(means[0]) + abs(means[1])
             + abs(obs.z1 * p.p3) + abs(obs.z2 * (1.0 - p.p3)))
    if not gap < MEAN_IDENTITY_TOL * (1.0 + scale):
        raise ArithmeticError(
            f"matrix trace {value} and classical sum {classical_sum} disagree"
        )
    return value
