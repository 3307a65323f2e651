"""Nonlinear addition rules for coin probabilities of superposed states.

Four computation paths produce the coin triple of c1|psi1> + c2|psi2>:

* ``superpose_oracle`` builds the spinors explicitly, adds them and
  normalizes -- the ground truth the other paths are checked against;
* ``superpose_general`` evaluates the closed-form probability expressions
  for arbitrary (not necessarily orthogonal) pure inputs;
* ``superpose_orthogonal`` assembles the projector addition rule
  lam1*rho1 + lam2*rho2 + sqrt(lam1*lam2) * cross(rho0) for orthogonal
  inputs;
* ``superpose_spinor`` writes out the superposed column vector in the
  amplitude/phase parametrization.

The weight/phase triple (Pi1, Pi2, Pi3) encodes c1 = sqrt(Pi3) and
c2 = sqrt(1 - Pi3) * exp(i*alpha), with alpha read off the triple the same
way a state phase is.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import (
    DegeneratePhaseStateError,
    DegenerateSuperpositionError,
    DomainError,
    NotOrthogonalError,
)
from .states import (
    ANNIHILATION_TOL,
    DIVISOR_TOL,
    HANDOVER_TOL,
    INTERFERENCE_TOL,
    ORTHO_TOL,
    PATH_AGREE_TOL,
    DensityMatrix2,
    ProbabilityTriple,
    _Frozen,
    _at_pole,
    _cmul,
    _fma,
    _overlap,
    _pure_triple,
    _require_pure,
    _set,
    coin_phase,
    density_to_prob,
)

# numpy is imported inside the functions that build arrays, so the
# scalar API and the CLI start without loading it.
if TYPE_CHECKING:
    import numpy as np


class SuperpositionWeights(_Frozen):
    """Pure triple (Pi1, Pi2, Pi3) encoding the coefficient pair (c1, c2).

    lambda1 = Pi3 and lambda2 = 1 - Pi3 are the weights; the relative
    phase alpha is the azimuthal phase of the triple (0 at the poles).
    """

    __slots__ = ("triple",)

    def __init__(self, triple: ProbabilityTriple) -> None:
        _require_pure(triple, "weight triple")
        _set(self, "triple", triple)

    @classmethod
    def from_probabilities(
        cls, pi1: float, pi2: float, pi3: float
    ) -> "SuperpositionWeights":
        return cls(ProbabilityTriple(pi1, pi2, pi3))

    @property
    def lambda1(self) -> float:
        return self.triple.p3

    @property
    def lambda2(self) -> float:
        return 1.0 - self.triple.p3

    @property
    def alpha(self) -> float:
        return coin_phase(self.triple)

    @property
    def c1(self) -> float:
        return math.sqrt(self.lambda1)

    @property
    def c2(self) -> complex:
        return cmath.rect(math.sqrt(self.lambda2), self.alpha)


class SuperpositionResult(_Frozen):
    __slots__ = ("state", "normalization", "path", "fallback_used")

    def __init__(
        self, state: ProbabilityTriple, normalization: float, path: str,
        fallback_used: bool = False,
    ) -> None:
        _set(self, "state", state)
        _set(self, "normalization", normalization)
        _set(self, "path", path)
        _set(self, "fallback_used", fallback_used)


def _front(p: ProbabilityTriple, q: ProbabilityTriple, w,
           orthogonality: str = "") -> tuple[SuperpositionWeights, bool]:
    """Each input's one check, in this order: w as weights, p pure, q pure.
    orthogonality "test" adds the package's one orthogonality test and returns
    its verdict (False where untested); "require" raises where it fails."""
    w = w if isinstance(w, SuperpositionWeights) else SuperpositionWeights(w)
    _require_pure(p, "first state")
    _require_pure(q, "second state")
    if not orthogonality:
        return w, False
    overlap = _overlap(p, q)
    orthogonal = overlap < ORTHO_TOL
    if not orthogonal and orthogonality == "require":
        raise NotOrthogonalError(
            f"input states must be orthogonal (<psi1|psi2> = 0); their "
            f"overlap Tr(rho1 rho2) is {overlap}"
        )
    return w, orthogonal


def superpose_oracle(
    p: ProbabilityTriple, q: ProbabilityTriple, w
) -> SuperpositionResult:
    """Direct spinor addition c1|chi1> + c2|chi2>, then normalization.

    This is the ground-truth path every probability-space formula is
    compared against.
    """
    return _oracle(p, q, _front(p, q, w)[0])


def _oracle(
    p: ProbabilityTriple, q: ProbabilityTriple, w: SuperpositionWeights
) -> SuperpositionResult:
    """superpose_oracle on checked inputs, in plain floats that print numpy's
    bits for chi = c1*ket(p) + c2*ket(q), np.vdot(chi, chi) and
    np.multiply.outer(chi, chi.conj()) / norm2.  Only the fused roundings that
    reach an output stay; the others could move only rho11, which the trace
    check alone reads, or a zero's sign that squares and 1/2 +- rho01 drop."""
    c1, c2 = w.c1, w.c2
    (a0, a1), (b0, b1) = _ket(p), _ket(q)
    x0, x1 = c1 * a0 + c2 * b0, c1 * a1 + _cmul(c2, b1)  # a0 and b0 are real
    norm2 = (_fma(x1.real, x1.real, x0.real * x0.real)
             + _fma(x1.imag, x1.imag, x0.imag * x0.imag))
    if norm2 <= ANNIHILATION_TOL:
        raise DegenerateSuperpositionError(
            "the superposed vector has zero norm (exact destructive "
            "interference); no qubit state exists"
        )
    inv = 1.0 / norm2
    rho = DensityMatrix2(_fma(x0.real, x0.real, x0.imag * x0.imag) * inv,
                         _cmul(x0, x1.conjugate()) * inv,
                         (x1.real * x1.real + x1.imag * x1.imag) * inv)
    return SuperpositionResult(
        state=density_to_prob(rho), normalization=norm2, path="matrix_oracle"
    )


def superpose_general(
    p: ProbabilityTriple, q: ProbabilityTriple, w
) -> SuperpositionResult:
    """Closed-form addition rule for arbitrary pure inputs.

    The closed forms divide by sqrt(p3) and sqrt(q3), and their coins err by
    about 3e-16 / (N sqrt(min(p3, q3))) at normalization N.  So unless p3, q3
    and N sqrt(min(p3, q3)) all exceed HANDOVER_TOL, or where that rounding
    puts a coin out of [0, 1], the oracle takes over (it alone decides
    annihilation) and the result is flagged with ``fallback_used``.
    """
    return _general(p, q, _front(p, q, w)[0])


def _general(p: ProbabilityTriple, q: ProbabilityTriple,
             w: SuperpositionWeights) -> SuperpositionResult:
    """superpose_general on checked inputs."""
    if p.p3 > HANDOVER_TOL and q.p3 > HANDOVER_TOL:
        dp1, dp2 = p.p1 - 0.5, p.p2 - 0.5
        dq1, dq2 = q.p1 - 0.5, q.p2 - 0.5
        dw1, dw2 = w.triple.p1 - 0.5, w.triple.p2 - 0.5
        pi3 = w.triple.p3
        root_pq = math.sqrt(p.p3 * q.p3)
        norm = 1.0 + (2.0 / root_pq) * (
            dw1 * (dp1 * dq1 + dq2 * dp2 + p.p3 * q.p3)
            + dw2 * (dp2 * dq1 - dp1 * dq2)
        )
        if norm * math.sqrt(min(p.p3, q.p3)) > HANDOVER_TOL:
            root_qp = math.sqrt(q.p3 / p.p3)
            root_pq_ratio = math.sqrt(p.p3 / q.p3)
            out3 = (pi3 * p.p3 + (1.0 - pi3) * q.p3 + 2.0 * root_pq * dw1) / norm
            out1 = 0.5 + (
                pi3 * dp1
                + dq1 * (1.0 - pi3)
                + (dw1 * dp1 + dw2 * dp2) * root_qp
                + (dw1 * dq1 - dw2 * dq2) * root_pq_ratio
            ) / norm
            out2 = 0.5 + (
                dp2 * pi3
                + dq2 * (1.0 - pi3)
                + root_qp * (dw1 * dp2 - dw2 * dp1)
                + root_pq_ratio * (dw2 * dq1 + dw1 * dq2)
            ) / norm
            try:
                return SuperpositionResult(ProbabilityTriple(out1, out2, out3),
                                           norm, "general_closed_form")
            except DomainError:  # a coin rounded more than SPILL_TOL past 0 or 1
                pass
    oracle = _oracle(p, q, w)
    return SuperpositionResult(oracle.state, oracle.normalization,
                               "general_closed_form", fallback_used=True)


def assemble_projector_sum(
    p: ProbabilityTriple,
    q: ProbabilityTriple,
    w,
    rho0: DensityMatrix2 | None = None,
) -> np.ndarray:
    """Matrix of the projector addition rule for orthogonal pure inputs.

    lam1*rho1 + lam2*rho2 + sqrt(lam1*lam2) *
    (rho1 rho0 rho2 + rho2 rho0 rho1) / sqrt(Tr(rho1 rho0 rho2 rho0)),
    divided by its trace, which differs from 1 for inputs that pass the
    orthogonality tolerance without being exactly orthogonal.

    By default rho0 is the projector of (|psi1> + e^{i*alpha}|psi2>)/sqrt(2),
    which gauges arg<psi1|psi0> to 0 and arg<psi2|psi0> to alpha so that the
    relative phase of the sum equals the weight phase alpha.  An explicit
    rho0 overrides that choice; the degenerate case where rho0 is orthogonal
    to an input (vanishing trace factor) is then an error.
    """
    return _projector_sum(p, q, _front(p, q, w, "require")[0], rho0)[0].as_array()


def _ket(p: ProbabilityTriple) -> tuple[complex, complex]:
    """Components (a0, a1*e^{i*phase}) of prob_to_spinor(p), unchecked."""
    a1 = math.sqrt(1.0 - p.p3)
    return complex(math.sqrt(p.p3)), a1 * cmath.exp(1j * coin_phase(p))


def _projector_sum(
    p: ProbabilityTriple, q: ProbabilityTriple, w: SuperpositionWeights,
    rho0: DensityMatrix2 | None,
) -> tuple[DensityMatrix2, float, float]:
    """Projector-rule state, the trace it was divided by, and the trace
    factor Tr(rho1 rho0 rho2 rho0); p and q are taken as pure and orthogonal.

    With rho1 = |1><1| and rho2 = |2><2|, rho1 rho0 rho2 = g|1><2| for
    g = <1|rho0|2>, and Tr(rho1 rho0 rho2 rho0) = |g|^2.
    """
    u, v = _ket(p), _ket(q)
    if rho0 is None:
        # g = <1|psi0><psi0|2> for psi0 = (|1> + e^{i*alpha}|2>)/sqrt(2),
        # with <1|1> = <2|2> = 1
        phase = cmath.exp(1j * w.alpha)
        overlap = u[0].conjugate() * v[0] + u[1].conjugate() * v[1]
        g = (1.0 + phase * overlap) * (overlap + phase.conjugate()) / 2.0
    else:
        g = u[0].conjugate() * (rho0.rho00 * v[0] + rho0.rho01 * v[1]) + (
            u[1].conjugate() * (rho0.rho10 * v[0] + rho0.rho11 * v[1])
        )
    trace_factor = abs(g) ** 2
    if trace_factor <= INTERFERENCE_TOL:
        raise DegeneratePhaseStateError(
            "Tr(rho1 rho0 rho2 rho0) vanishes: the phase-defining projector "
            "is orthogonal to one of the input states"
        )
    k = math.sqrt(w.lambda1 * w.lambda2) / abs(g)

    def entry(i: int, j: int) -> complex:
        """<i| lam1 rho1 + lam2 rho2 + k (g|1><2| + conj(g)|2><1|) |j>"""
        cross = g * u[i] * v[j].conjugate()
        return (
            w.lambda1 * u[i] * u[j].conjugate()
            + w.lambda2 * v[i] * v[j].conjugate()
            + k * (cross + (g * u[j] * v[i].conjugate()).conjugate())
        )

    m00, m11 = entry(0, 0).real, entry(1, 1).real
    trace = m00 + m11
    rho = DensityMatrix2(m00 / trace, entry(0, 1) / trace, m11 / trace)
    return rho, trace, trace_factor


def superpose_orthogonal(
    p: ProbabilityTriple,
    q: ProbabilityTriple,
    w,
    rho0: DensityMatrix2 | None = None,
) -> SuperpositionResult:
    """Projector addition rule; the normalization is the sum's trace."""
    rho, trace, _ = _projector_sum(p, q, _front(p, q, w, "require")[0], rho0)
    return SuperpositionResult(
        state=density_to_prob(rho), normalization=trace, path="orthogonal_rule"
    )


def delta_decomposition(
    p: ProbabilityTriple,
    q: ProbabilityTriple,
    w,
    rho0: DensityMatrix2 | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Split the output triple into linear and interference parts.

    Returns ``(linear, delta, T)`` where
    linear = lam1*p + lam2*q,
    delta = (P_out - linear) / sqrt(lam1*lam2), and
    T = Tr(rho1 rho0 rho2 rho0)^(-1/2) for the rho0 actually used.
    """
    w = w if isinstance(w, SuperpositionWeights) else SuperpositionWeights(w)
    if w.lambda1 * w.lambda2 < INTERFERENCE_TOL:
        raise DomainError(
            "delta is undefined for pure weights (lambda1 * lambda2 = 0)"
        )
    _front(p, q, w, "require")
    rho, _, trace_factor = _projector_sum(p, q, w, rho0)
    out = density_to_prob(rho)
    linear = w.lambda1 * p.vec() + w.lambda2 * q.vec()
    delta = (out.vec() - linear) / math.sqrt(w.lambda1 * w.lambda2)
    return linear, delta, trace_factor ** -0.5


def superpose_spinor(
    p: ProbabilityTriple, q: ProbabilityTriple, w
) -> SuperpositionResult:
    """Explicit column vector of the superposition, for orthogonal inputs.

    Writes out
    (sqrt(Pi3*p3) + e^{i*delta}*sqrt(q3*(1-Pi3)),
     e^{i*beta}*sqrt(Pi3*(1-p3)) + e^{i*(delta+mu)}*sqrt((1-Pi3)*(1-q3)))
    with beta, mu the phases of p and q and delta the weight phase.
    """
    return _spinor(p, q, _front(p, q, w, "require")[0])


def _spinor(p: ProbabilityTriple, q: ProbabilityTriple,
            w: SuperpositionWeights) -> SuperpositionResult:
    """superpose_spinor on inputs already checked pure and orthogonal."""
    beta, mu, delta, pi3 = coin_phase(p), coin_phase(q), w.alpha, w.triple.p3
    top = math.sqrt(pi3 * p.p3) + cmath.exp(1j * delta) * math.sqrt(q.p3 * (1.0 - pi3))
    bottom = cmath.exp(1j * beta) * math.sqrt(pi3 * (1.0 - p.p3)) + cmath.exp(
        1j * (delta + mu)) * math.sqrt((1.0 - pi3) * (1.0 - q.p3))
    top2, bottom2 = abs(top) ** 2, abs(bottom) ** 2
    # orthogonal inputs keep norm2 above about 1 - sqrt(ORTHO_TOL): never zero
    norm2 = top2 + bottom2
    rho = DensityMatrix2(
        top2 / norm2, top * bottom.conjugate() / norm2, bottom2 / norm2
    )
    return SuperpositionResult(
        state=density_to_prob(rho), normalization=norm2, path="spinor_path"
    )


def superpose_checked(
    p: ProbabilityTriple, q: ProbabilityTriple, w
) -> tuple[SuperpositionResult, bool]:
    """The general path's result, and whether every path that applies (the
    orthogonal and spinor paths only to orthogonal inputs) lies within
    PATH_AGREE_TOL of the oracle in each coin.  The front checks the inputs
    once and its verdict picks the paths, whose unchecked cores then run."""
    w, orthogonal = _front(p, q, w, "test")
    general = _general(p, q, w)
    ref = general.state if general.fallback_used else _oracle(p, q, w).state
    outs = [general.state]
    if orthogonal:
        outs += [density_to_prob(_projector_sum(p, q, w, None)[0]),
                 _spinor(p, q, w).state]
    agree = all(
        max(abs(s.p1 - ref.p1), abs(s.p2 - ref.p2), abs(s.p3 - ref.p3))
        < PATH_AGREE_TOL
        for s in outs
    )
    return general, agree


def orthogonal_partner(p: ProbabilityTriple, sign: str = "+") -> ProbabilityTriple:
    """The pure triple orthogonal to a pure triple.

    In two dimensions the orthogonal complement of a pure state is unique
    up to a global phase, so both sign branches (second-component phase
    beta + pi versus beta - pi) yield the same triple: the antipodal point
    (1-p1, 1-p2, 1-p3).  The sign parameter is kept so callers can record
    which branch they meant.
    """
    if sign not in ("+", "-"):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    _require_pure(p)
    return ProbabilityTriple(1.0 - p.p1, 1.0 - p.p2, 1.0 - p.p3)


def unit_normalization_phase(
    p: ProbabilityTriple, q: ProbabilityTriple
) -> float:
    """Weight phase alpha for which the closed-form normalization is 1.

    tan(alpha) = (1/sin(phi2-phi1)) *
                 (sqrt(p3*q3 / ((1-p3)*(1-q3))) + cos(phi1-phi2)).
    Undefined when the input phases coincide modulo pi or either state sits
    at a pole.
    """
    _require_pure(p, "first state")
    _require_pure(q, "second state")
    # p3 = 1 is the pole |0> even where BALL_TOL lets p1, p2 stray off it
    for name, state in (("p3", p), ("q3", q)):
        if _at_pole(state) or state.p3 == 1.0:
            raise DomainError(
                f"{name} = {state.p3} sits at a pole; the phase condition "
                "is undefined there"
            )
    phi1 = coin_phase(p)
    phi2 = coin_phase(q)
    sin_diff = math.sin(phi2 - phi1)
    if abs(sin_diff) <= DIVISOR_TOL:
        raise DomainError(
            "the input phases coincide modulo pi; no weight phase makes the "
            "normalization equal to 1"
        )
    ratio = math.sqrt(
        (p.p3 * q.p3) / ((1.0 - p.p3) * (1.0 - q.p3))
    )
    return math.atan((ratio + math.cos(phi1 - phi2)) / sin_diff)


def weights_for_phase(alpha: float, pi3: float = 0.5) -> SuperpositionWeights:
    """Pure weight triple with weight Pi3 and relative phase alpha."""
    if not 0.0 <= pi3 <= 1.0:
        raise DomainError(f"Pi3 must lie in [0, 1], got {pi3!r}")
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    r = math.sqrt(pi3 * (1.0 - pi3))
    return SuperpositionWeights(_pure_triple(pi3, r, alpha))
