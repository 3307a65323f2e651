"""Coin-probability description of a single qubit.

A qubit state is encoded by the probabilities (p1, p2, p3) that three
classical coins land "up"; the coins correspond to spin measurements along
x, y and z.  This module holds the domain types and the bijections between
coin triples, spinors, complex numbers in the unit disk and 2x2 density
matrices, plus the scalar state functionals (purity, fidelity,
classification against the correlation ball).
"""

from __future__ import annotations

import cmath
import math

from .errors import ClassicalStateError, DomainError, NotPureError

# numpy is imported inside the functions that build arrays, so the
# scalar API and the CLI start without loading it.
TYPE_CHECKING = False  # typing's constant, without importing typing
if TYPE_CHECKING:
    import numpy as np

# The tolerance table: every tolerance of the package, named for the bound
# it guards.  Classification and orthogonality are physical statements and
# use looser bounds than floating-point bookkeeping.
BALL_TOL = 1e-9  # |radius^2 - 1/4| of a triple on the ball surface (pure)
ORTHO_TOL = 1e-9  # |<psi1|psi2>| below which two pure states count as orthogonal
PATH_AGREE_TOL = 1e-9  # coin gap of a superposition path from the oracle
SIDE_TOL = 1e-9  # spill of a triada side above sqrt(2)
HERMITIAN_TOL = 1e-10  # anti-Hermitian part of a matrix read as Hermitian
UNIT_TOL = 1e-12  # |Tr rho - 1| of a matrix, ||psi|^2 - 1| of a spinor
SPILL_TOL = 1e-12  # absorbed rounding past p in [0, 1], |z| <= 1, det >= 0
POLE_TOL = 1e-12  # hypot(p1 - 1/2, p2 - 1/2) at or below which the phase is 0
DIVISOR_TOL = 1e-12  # sin(phi2-phi1), divisor of unit_normalization_phase
HANDOVER_TOL = 1e-6  # p3, q3 or N*sqrt(min(p3, q3)) up to which the oracle is used
ANNIHILATION_TOL = 1e-12  # squared norm of a superposed vector that is zero (oracle)
INTERFERENCE_TOL = 1e-14  # lam1*lam2 and Tr(rho1 rho0 rho2 rho0), as zero

TWO_PI = 2.0 * math.pi


def _real(value, name: str, kind: type = float) -> float | complex:
    """kind(value): a caller's number read into the field `name` as a float,
    or a complex for kind=complex.  Text (str, bytes, bytearray), which
    float() and complex() would parse, is a TypeError, and an int too large
    for a float a DomainError, each naming the field."""
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    try:
        return kind(value)
    except OverflowError:
        raise DomainError(f"{name} overflows a float") from None


def _unit_interval(value: float, name: str) -> float:
    """Validate a probability, absorbing floating spill up to SPILL_TOL."""
    value = _real(value, name)
    if 0.0 <= value <= 1.0:  # nan and +-inf fail this and reach the checks below
        return value
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if -SPILL_TOL <= value <= 1.0 + SPILL_TOL:
        return 0.0 if value < 0.0 else 1.0
    raise DomainError(f"{name} must lie in [0, 1], got {value!r}")


def _shown(value) -> str:
    """repr(value) for an error message.  An int past Python's limit for
    printing ints in decimal (4300 digits by default) shows as its length."""
    try:
        return repr(value)
    except ValueError:  # int.__repr__ refuses it
        n = abs(value)
        digits = int(math.log10(n)) + 1  # off by at most one either way
        digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def _number_field(data: dict, name: str, kind: str) -> int | float:
    """Field `name` of a parsed JSON object, for a constructor to convert
    (an integer too large for a float is its DomainError).  Only JSON
    numbers are read (a bool is not one); a missing field is a DomainError."""
    if name not in data:
        raise DomainError(f"{kind} object is missing field {name!r}")
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(
            f"{kind} field {name!r} must be a number, got {type(value).__name__}"
        )
    return value


class _Frozen:
    """Immutable value whose fields are ``_fields``, by default its
    ``__slots__`` in order.  A class that names a shorter ``_fields`` keeps
    in its other slots values its ``__init__`` derives from the fields.

    Each subclass's ``__init__`` checks its arguments and stores every slot
    through ``_setters``: the ``__set__`` of each slot's member descriptor,
    in ``__slots__`` order, a base's slots first.  Equality and hashing go
    field by field and hold only between instances of one class; ``repr``
    reads like a dataclass's, and pickling and copying rebuild the value
    from its fields through ``__init__``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls) -> None:
        own = vars(cls)  # a subclass's own slots extend its base's fields
        cls._fields = own.get("_fields", cls._fields + own.get("__slots__", ()))
        cls.__match_args__ = cls._fields
        slots = [name for base in reversed(cls.__mro__)
                 for name in vars(base).get("__slots__", ())]
        cls._setters = tuple(getattr(cls, name).__set__ for name in slots)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _wrap_phase(phase: float) -> float:
    phase = math.fmod(phase, TWO_PI)
    if phase < 0.0:
        phase += TWO_PI
    return phase if phase < TWO_PI else 0.0


class ProbabilityTriple(_Frozen):
    """Probabilities of the "up" outcome for the x, y and z coins.

    Any point of the unit cube is constructible; only the points inside the
    correlation ball (p1-1/2)^2 + (p2-1/2)^2 + (p3-1/2)^2 <= 1/4 correspond
    to qubit states.  Triples outside the ball are called classical and are
    rejected by quantum-only operations, not by the constructor.  The
    constructor stores ``radius2``, the squared distance from the cube
    center (1/2, 1/2, 1/2), beside the three fields.
    """

    __slots__ = ("p1", "p2", "p3", "radius2")
    _fields = ("p1", "p2", "p3")

    def __init__(self, p1: float, p2: float, p3: float) -> None:
        # three exact floats in [0, 1] pass as given; nan fails the comparison
        if not (float is p1.__class__ is p2.__class__ is p3.__class__
                and 0.0 <= p1 <= 1.0 >= p2 >= 0.0 <= p3 <= 1.0):
            p1 = _unit_interval(p1, "p1")
            p2 = _unit_interval(p2, "p2")
            p3 = _unit_interval(p3, "p3")
        set_p1, set_p2, set_p3, set_radius2 = self._setters
        set_p1(self, p1)
        set_p2(self, p2)
        set_p3(self, p3)
        d1, d2, d3 = p1 - 0.5, p2 - 0.5, p3 - 0.5
        set_radius2(self, d1 * d1 + d2 * d2 + d3 * d3)

    def vec(self) -> np.ndarray:
        import numpy as np

        return np.array([self.p1, self.p2, self.p3])

    def classify(self) -> str:
        """Return 'pure', 'mixed' or 'classical'."""
        excess = self.radius2 - 0.25
        if abs(excess) <= BALL_TOL:
            return "pure"
        return "mixed" if excess <= BALL_TOL else "classical"

    @property
    def is_quantum(self) -> bool:
        # the same excess over 1/4 as is_pure, so the two verdicts agree
        return self.radius2 - 0.25 <= BALL_TOL

    @property
    def is_pure(self) -> bool:
        return abs(self.radius2 - 0.25) <= BALL_TOL

    def to_json_dict(self) -> dict:
        return {"kind": "coin-state", "p1": self.p1, "p2": self.p2, "p3": self.p3}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProbabilityTriple":
        if not isinstance(data, dict) or data.get("kind") != "coin-state":
            raise DomainError("expected a JSON object with kind 'coin-state'")
        fields = ("p1", "p2", "p3")
        return cls(*(_number_field(data, name, "coin-state") for name in fields))


class DensityMatrix2(_Frozen):
    """Hermitian unit-trace 2x2 matrix.

    Hermiticity is exact by construction: only rho00, rho11 (real) and
    rho01 are stored, rho10 is always conj(rho01).  Nonnegativity is a
    reported property, not a constructor requirement, because coin triples
    outside the correlation ball map to indefinite matrices on purpose.
    """

    __slots__ = ("rho00", "rho01", "rho11")

    def __init__(self, rho00: float, rho01: complex, rho11: float) -> None:
        rho00, rho01, rho11 = map(_real, (rho00, rho01, rho11), self._fields,
                                  (float, complex, float))
        _check_entries(rho00, rho01, rho11)
        set_rho00, set_rho01, set_rho11 = self._setters
        set_rho00(self, rho00)
        set_rho01(self, rho01)
        set_rho11(self, rho11)

    @property
    def rho10(self) -> complex:
        return self.rho01.conjugate()

    @property
    def det(self) -> float:
        off = self.rho01
        return self.rho00 * self.rho11 - (off.real * off.real + off.imag * off.imag)

    @property
    def is_nonnegative(self) -> bool:
        return self.det >= -SPILL_TOL

    def eigenvalues(self) -> tuple[float, float]:
        """Closed-form eigenvalues 1/2 +- |Bloch vector|, descending."""
        off = self.rho01
        half = math.hypot(0.5 * (self.rho00 - self.rho11), off.real, off.imag)
        return 0.5 + half, 0.5 - half

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(
            [[self.rho00, self.rho01], [self.rho10, self.rho11]], dtype=complex
        )

    @classmethod
    def from_array(cls, matrix: np.ndarray) -> "DensityMatrix2":
        import numpy as np

        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
        m00, m01, m10, m11 = m.ravel().tolist()
        if not (abs(m00.imag) <= HERMITIAN_TOL and abs(m11.imag) <= HERMITIAN_TOL
                and abs(m10 - m01.conjugate()) <= HERMITIAN_TOL):
            raise DomainError("matrix is not Hermitian")
        return cls(m00.real, m01, m11.real)


class Spinor2(_Frozen):
    """Normalized two-component spinor (a, b*exp(i*phase)) with a, b >= 0.

    The global phase is fixed to zero: the first component is real and
    nonnegative, so a spinor determines its pure state and vice versa up to
    the pole convention below.
    """

    __slots__ = ("amplitude0", "amplitude1", "phase")

    def __init__(self, amplitude0: float, amplitude1: float, phase: float) -> None:
        a0, a1, phase = map(_real, (amplitude0, amplitude1, phase), self._fields)
        if a0 < 0.0 or a1 < 0.0:
            raise DomainError("spinor amplitudes must be nonnegative")
        if not abs(a0 * a0 + a1 * a1 - 1.0) <= UNIT_TOL:
            raise DomainError(
                f"spinor must be normalized, got |.|^2 = {a0 * a0 + a1 * a1!r}"
            )
        if not math.isfinite(phase):
            raise DomainError(f"spinor phase must be finite, got {phase!r}")
        set_a0, set_a1, set_phase = self._setters
        set_a0(self, a0)
        set_a1(self, a1)
        set_phase(self, _wrap_phase(phase))

    def as_vector(self) -> np.ndarray:
        import numpy as np

        return np.array(
            [self.amplitude0, self.amplitude1 * cmath.exp(1j * self.phase)]
        )


def _check_entries(rho00: float, rho01: complex, rho11: float) -> None:
    """DensityMatrix2's checks on its converted entries: a trace within
    UNIT_TOL of 1 and a finite rho01."""
    if not abs(rho00 + rho11 - 1.0) <= UNIT_TOL:
        raise DomainError(f"trace must be 1, got {rho00 + rho11!r}")
    if not cmath.isfinite(rho01):
        raise DomainError(f"rho01 must be finite, got {rho01!r}")


def _entries_to_prob(rho00: float, rho01: complex, rho11: float) -> ProbabilityTriple:
    """The coin triple of the entries rho00, rho11 (floats) and rho01
    (complex), checked as DensityMatrix2 checks them, with its errors and
    messages.  The kernels that compute a state's entries return it through
    this, with no matrix built."""
    _check_entries(rho00, rho01, rho11)
    return ProbabilityTriple(0.5 + rho01.real, 0.5 - rho01.imag, rho00)


def prob_to_density(p: ProbabilityTriple) -> DensityMatrix2:
    """Map a coin triple to its Hermitian unit-trace matrix.

    Total on the whole cube.  For classical triples the result has a
    negative eigenvalue; check ``is_nonnegative`` on the result rather than
    expecting an exception here.
    """
    off = (p.p1 - 0.5) - 1j * (p.p2 - 0.5)
    return DensityMatrix2(p.p3, off, 1.0 - p.p3)


def density_to_prob(rho: DensityMatrix2) -> ProbabilityTriple:
    """Inverse of prob_to_density; exact round-trip."""
    return _entries_to_prob(rho.rho00, rho.rho01, rho.rho11)


def is_quantum(p: ProbabilityTriple) -> tuple[str, float]:
    """Classify a triple against the correlation ball.

    Returns ``(kind, radius2)`` with kind one of 'classical', 'mixed',
    'pure'.
    """
    return p.classify(), p.radius2


def _require_quantum(p: ProbabilityTriple, role: str = "state") -> None:
    if not p.radius2 - 0.25 <= BALL_TOL:  # p.is_quantum, one frame less
        raise ClassicalStateError(
            f"{role} ({p.p1}, {p.p2}, {p.p3}) lies outside the correlation "
            f"ball (radius^2 = {p.radius2} > 1/4): not a qubit state"
        )


def _require_pure(p: ProbabilityTriple, role: str = "state") -> None:
    if not abs(p.radius2 - 0.25) <= BALL_TOL:  # p.is_pure, one frame less
        raise NotPureError(
            f"{role} ({p.p1}, {p.p2}, {p.p3}) is not pure: radius^2 = "
            f"{p.radius2}, expected 1/4"
        )


def purity(p: ProbabilityTriple) -> float:
    """Purity 2*(1 + |p|^2 - p1 - p2 - p3) = Tr rho^2, in [1/2, 1 + 2*BALL_TOL]:
    not clamped where BALL_TOL lets a quantum triple lie outside the ball."""
    _require_quantum(p)
    dot = p.p1 * p.p1 + p.p2 * p.p2 + p.p3 * p.p3
    return 2.0 * (1.0 + dot - p.p1 - p.p2 - p.p3)


def fidelity(p: ProbabilityTriple, q: ProbabilityTriple) -> float:
    """Overlap Tr(rho_p rho_q) as a closed form in the two triples, in
    [-2*BALL_TOL, 1 + 2*BALL_TOL]: not clamped, as purity is not."""
    _require_quantum(p, "first state")
    _require_quantum(q, "second state")
    dot = p.p1 * q.p1 + p.p2 * q.p2 + p.p3 * q.p3
    return (
        2.0 + 2.0 * dot - p.p1 - p.p2 - p.p3 - q.p1 - q.p2 - q.p3
    )


def _at_pole(p: ProbabilityTriple) -> bool:
    """Whether p sits at a pole, where its azimuthal phase is 0 by convention."""
    return math.hypot(p.p1 - 0.5, p.p2 - 0.5) <= POLE_TOL


def coin_phase(p: ProbabilityTriple) -> float:
    """Azimuthal phase of a triple, in [0, 2*pi); 0 by convention at poles."""
    if _at_pole(p):
        return 0.0
    return _wrap_phase(math.atan2(p.p2 - 0.5, p.p1 - 0.5))


def prob_to_spinor(p: ProbabilityTriple) -> Spinor2:
    """Spinor (sqrt(p3), sqrt(1-p3)*exp(i*gamma)) of a pure triple.

    gamma satisfies cos(gamma) = (p1-1/2)/sqrt(p3(1-p3)) and
    sin(gamma) = (p2-1/2)/sqrt(p3(1-p3)); at a pole (see coin_phase) the
    phase is 0 by convention.
    """
    _require_pure(p)
    a0 = math.sqrt(p.p3)
    a1 = math.sqrt(1.0 - p.p3)
    return Spinor2(a0, a1, coin_phase(p))


def spinor_to_prob(s: Spinor2) -> ProbabilityTriple:
    """Pure triple of a spinor; inverse of prob_to_spinor away from poles."""
    a0 = s.amplitude0
    return _pure_triple(a0 * a0, a0 * s.amplitude1, s.phase)


def _pure_triple(p3: float, r: float, phase: float) -> ProbabilityTriple:
    """Pure triple (1/2 + r cos(phase), 1/2 + r sin(phase), p3), r^2 = p3(1-p3)."""
    return ProbabilityTriple(
        0.5 + r * math.cos(phase), 0.5 + r * math.sin(phase), p3
    )


def complex_to_coins(z: complex) -> ProbabilityTriple:
    """Map a complex number with |z| <= 1 to a pure coin triple.

    p3 = |z|^2 and the phase of z fixes p1, p2 on the circle
    (p1-1/2)^2 + (p2-1/2)^2 = p3(1-p3); the phase is 0 where that triple
    sits at a pole (see coin_phase).
    """
    z = _real(z, "z", complex)
    try:
        m = abs(z)
    except OverflowError:  # |z| past the float maximum
        m = math.inf
    mag2 = m * m
    if mag2 > 1.0 + SPILL_TOL:
        raise DomainError(f"|z| must be <= 1, got z = {z!r}")
    p3 = min(mag2, 1.0)
    r = math.sqrt(p3 * (1.0 - p3))
    p = _pure_triple(p3, r, cmath.phase(z))
    return _pure_triple(p3, r, 0.0) if _at_pole(p) else p


def coins_to_complex(p: ProbabilityTriple) -> complex:
    """Inverse of complex_to_coins on pure triples (phase 0 at poles)."""
    _require_pure(p)
    return cmath.rect(math.sqrt(p.p3), coin_phase(p))
