"""Dichotomic random variables attached to the three coins.

The x and y coins carry symmetric variables (x, -x) and (y, -y); the z
coin carries (z1, z2).  The Hermitian matrix built from (x, y, z1, z2) is
the quantum observable whose mean against a state equals the sum of the
three classical means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .states import (
    MEAN_IDENTITY_TOL,
    ProbabilityTriple,
    _number_field,
    _require_quantum,
    prob_to_density,
)

# numpy is imported inside the functions that build arrays, so the
# scalar API and the CLI start without loading it.
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CoinObservable:
    """Values of the coin random variables: (x, -x), (y, -y), (z1, z2)."""

    x: float
    y: float
    z1: float
    z2: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z1", "z2"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

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

    The value always equals the sum of the three classical means; the
    identity is checked here so a drift between the two routes cannot go
    unnoticed.  Finite coefficients near the float maximum can overflow
    either route; that is a DomainError, since no finite mean can be
    returned.
    """
    _require_quantum(p)
    classical_sum = sum(classical_means(obs, p))
    if not math.isfinite(classical_sum):
        raise DomainError(f"mean overflows: classical sum {classical_sum}")
    import numpy as np

    rho = prob_to_density(p).as_array()
    trace = np.trace(rho @ obs.matrix())
    value = float(trace.real)
    if not math.isfinite(value):
        raise DomainError(f"mean overflows: matrix trace {value}")
    if not abs(value - classical_sum) < MEAN_IDENTITY_TOL * (1.0 + abs(value)):
        raise ArithmeticError(
            f"matrix trace {value} and classical sum {classical_sum} disagree"
        )
    return value
