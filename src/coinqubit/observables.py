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
    _set,
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
        for name, value in zip(self.__slots__, (x, y, z1, z2)):
            value = float(value)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            _set(self, name, value)

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
    """Second moments; the x and y moments do not depend on the state."""
    moment_z = (obs.z1 ** 2 - obs.z2 ** 2) * p.p3 + obs.z2 ** 2
    return obs.x ** 2, obs.y ** 2, moment_z


def quantum_mean(obs: CoinObservable, p: ProbabilityTriple) -> float:
    """Tr(rho H), computed by explicit matrix trace.

    Plain floats round the diagonal of rho @ H as numpy's 2x2 complex matmul
    (zgemm) does with fused multiply-adds, and sum it as np.trace does:
    0.0 + d11 turns -0.0 into +0.0.
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

    def diagonal(a, b, u, v) -> float:  # Re(a*b + u*v), accumulated as zgemm does
        return _fma(u.real, v.real, _fma(-u.imag, v.imag,
                                         _fma(a.real, b.real, -(a.imag * b.imag))))

    value = (diagonal(rho.rho00, obs.z1, rho.rho01, h10)
             + (0.0 + diagonal(rho.rho10, h01, rho.rho11, obs.z2)))
    if not math.isfinite(value):
        raise DomainError(f"mean overflows: matrix trace {value}")
    gap = abs(value - classical_sum)
    # rounding error scales with the terms, which can cancel in the result
    if not (gap < MEAN_IDENTITY_TOL * (1.0 + abs(value))
            or gap < MEAN_IDENTITY_TOL * (1.0 + max(map(abs, means)))):
        raise ArithmeticError(
            f"matrix trace {value} and classical sum {classical_sum} disagree"
        )
    return value
