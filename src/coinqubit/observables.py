"""Dichotomic random variables attached to the three coins.

The x and y coins carry symmetric variables (x, -x) and (y, -y); the z
coin carries (z1, z2).  The Hermitian matrix built from (x, y, z1, z2) is
the quantum observable whose mean against a state equals the sum of the
three classical means.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .states import ProbabilityTriple, _Frozen, _number_field, _require_quantum

# numpy is imported inside the functions that build arrays, so the
# scalar API and the CLI start without loading it.
TYPE_CHECKING = False  # typing's constant, without importing typing
if TYPE_CHECKING:
    import numpy as np


_INF, _NEG_INF = math.inf, -math.inf


def _coefficient(value: float, name: str) -> float:
    """Validate an observable coefficient: a finite float."""
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float
        raise DomainError(f"{name} overflows a float") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


class CoinObservable(_Frozen):
    """Values of the coin random variables: (x, -x), (y, -y), (z1, z2)."""

    __slots__ = ("x", "y", "z1", "z2")

    def __init__(self, x: float, y: float, z1: float, z2: float) -> None:
        # four exact finite floats pass as given; nan fails the comparison
        if not (float is x.__class__ is y.__class__ is z1.__class__ is z2.__class__
                and _NEG_INF < x < _INF > y > _NEG_INF < z1 < _INF > z2 > _NEG_INF):
            x, y, z1, z2 = map(_coefficient, (x, y, z1, z2), self._fields)
        set_x, set_y, set_z1, set_z2 = self._setters
        set_x(self, x)
        set_y(self, y)
        set_z1(self, z1)
        set_z2(self, z2)

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
    """Tr(rho H), as the correctly rounded sum of the three classical means.

    The paper's identity Tr(rho H) = sum of the classical means holds
    exactly, since the off-diagonal products of rho and H are conjugates.
    Finite coefficients near the float maximum can overflow the sum; that
    is a DomainError, since no finite mean can be returned.
    """
    _require_quantum(p)
    means = classical_means(obs, p)
    try:
        value = math.fsum(means)
    except OverflowError:  # a partial sum past the float maximum
        from fractions import Fraction

        try:
            value = float(sum(map(Fraction, means)))
        except OverflowError:  # the sum itself
            value = math.inf
    if not math.isfinite(value):  # or the z mean overflowed on its own
        raise DomainError(f"mean overflows: classical means {means}")
    return value
