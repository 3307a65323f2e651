"""The kernels against exact rational arithmetic, and against the paths.

``purity``, ``fidelity`` and ``quantum_mean`` are polynomials in their float
inputs, so ``fractions.Fraction`` gives their true values with no rounding.
Each is compared with that value on seeded states inside the ball, on the
sphere, at the six poles and the centre, and next to a pole.  The bounds are
a few units in the last place: over 2e4 states and pairs drawn as here,
the worst errors were 5.5 * 2**-52 (purity), 7.9 * 2**-52 (fidelity) and
2.8 * 2**-53 times the sum of the term magnitudes (quantum_mean).

The superposition oracle is compared with the same arithmetic done exactly
on its own kets, which need only square roots and ``math.hypot``; no kernel
reaches libm's trigonometry.  A property over typed-in pure triples holds
every path to the oracle within PATH_AGREE_TOL wherever it succeeds.

A density matrix's eigenvalues are held to 1/2 +- sqrt(radius2) of its
triple, also next to the centre, where 1 - 4 det cancels.

No test here needs numpy.
"""

import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_kernels_golden as golden
from coinqubit import (
    CoinObservable,
    CoinQubitError,
    DensityMatrix2,
    DomainError,
    ProbabilityTriple,
    fidelity,
    is_quantum,
    prob_to_density,
    purity,
    quantum_mean,
    superpose_checked,
    superpose_general,
    superpose_oracle,
    superpose_orthogonal,
    superpose_spinor,
    superposition,
)
from coinqubit.states import PATH_AGREE_TOL

ABS_BOUND = 16 * 2.0**-52  # purity and fidelity, whose values are at most 1
REL_BOUND = 8 * 2.0**-53  # quantum_mean, times the sum of its terms' magnitudes
HALF = Fraction(1, 2)


def _inside(r: random.Random) -> tuple:
    while True:
        v = [r.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        if norm > 1e-6:
            break
    radius = 0.5 * r.random() ** (1.0 / 3.0)
    return tuple(0.5 + radius * x / norm for x in v)


def _pure(r: random.Random) -> tuple:
    z, phi = r.uniform(-1.0, 1.0), r.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - z * z) / 2.0
    return 0.5 + s * math.cos(phi), 0.5 + s * math.sin(phi), 0.5 + z / 2.0


EDGES = [
    (1.0, 0.5, 0.5), (0.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.0, 0.5),
    (0.5, 0.5, 1.0), (0.5, 0.5, 0.0), (0.5, 0.5, 0.5), (0.5, 0.5, 5e-324),
    (0.5 + math.sqrt(1e-13 * (1.0 - 1e-13)), 0.5, 1e-13),
    (0.5, 0.5 - math.sqrt(1e-14 * (1.0 - 1e-14)), 1.0 - 1e-14),
]


def _states(seed: int, count: int) -> list:
    r = random.Random(seed)
    drawn = [r.choice((_inside, _pure))(r) for _ in range(count)]
    return [ProbabilityTriple(*p) for p in EDGES + drawn]


def _exact(p: ProbabilityTriple) -> tuple:
    return tuple(map(Fraction, (p.p1, p.p2, p.p3)))


def exact_purity(p: ProbabilityTriple) -> Fraction:
    """Tr rho^2 = 2 (1 + |p|^2 - p1 - p2 - p3), exactly."""
    c = _exact(p)
    return 2 * (1 + sum(x * x for x in c) - sum(c))


def exact_fidelity(p: ProbabilityTriple, q: ProbabilityTriple) -> Fraction:
    """Tr(rho_p rho_q) = 2 + 2 p.q - sum(p) - sum(q), exactly."""
    a, b = _exact(p), _exact(q)
    return 2 + 2 * sum(x * y for x, y in zip(a, b)) - sum(a) - sum(b)


def _cx(z) -> tuple:
    return Fraction(z.real), Fraction(z.imag)


def _mul(x, y) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y) -> tuple:
    return x[0] + y[0], x[1] + y[1]


def exact_mean(obs: CoinObservable, p: ProbabilityTriple) -> tuple:
    """Tr(rho H) exactly, as the trace of the matrix product, and the sum of
    the magnitudes of the classical means' terms.

    rho = [[p3, a - ib], [a + ib, 1 - p3]] with a = p1 - 1/2, b = p2 - 1/2,
    and H = [[z1, x - iy], [x + iy, z2]].  The paper's identity makes the
    trace real and equal to the sum of the classical means, 2ax + 2by +
    p3 z1 + (1 - p3) z2, which quantum_mean sums.
    """
    p1, p2, p3 = _exact(p)
    x, y, z1, z2 = map(Fraction, (obs.x, obs.y, obs.z1, obs.z2))
    a, b = p1 - HALF, p2 - HALF
    rho = (((p3, 0), (a, -b)), ((a, b), (1 - p3, 0)))
    h = (((z1, 0), (x, -y)), ((x, y), (z2, 0)))
    trace = (0, 0)
    for i in range(2):
        for j in range(2):
            trace = _add(trace, _mul(rho[i][j], h[j][i]))
    terms = (2 * a * x, 2 * b * y, p3 * z1, (1 - p3) * z2)
    assert trace == (sum(terms), 0)
    return trace[0], sum(map(abs, terms))


def _observables(seed: int, count: int) -> list:
    r = random.Random(seed)
    special = [0.0, -0.0, 1.0, -1.0, 1e-3, 1e3]
    drawn = [tuple(r.choice(special) if r.random() < 0.1 else r.uniform(-2.0, 2.0)
                   for _ in range(4)) for _ in range(count)]
    return [CoinObservable(*v) for v in drawn + [(1.0, -1.0, 2.0, -2.0)]]


STATES = _states(1803, 2000)


def test_purity_is_exact_to_a_few_ulps():
    worst = max(abs(Fraction(purity(p)) - exact_purity(p)) for p in STATES)
    assert worst <= ABS_BOUND, float(worst) / 2.0**-52


def test_fidelity_is_exact_to_a_few_ulps():
    pairs = list(zip(STATES, _states(1804, 2000)))
    pairs += [(p, q) for p in STATES[:len(EDGES)] for q in STATES[:len(EDGES)]]
    worst = max(abs(Fraction(fidelity(p, q)) - exact_fidelity(p, q)) for p, q in pairs)
    assert worst <= ABS_BOUND, float(worst) / 2.0**-52


def _centre(r: random.Random) -> tuple:
    return tuple(0.5 + r.uniform(-1e-6, 1e-6) for _ in range(3))


def spectrum_states(seed: int, count: int) -> list:
    """Triples inside the ball, every other one with each coin within 1e-6
    of 1/2, then the edges."""
    r = random.Random(seed)
    drawn = [(_centre if i % 2 else _inside)(r) for i in range(count)]
    return [ProbabilityTriple(*p) for p in drawn + EDGES]


def test_the_spectrum_is_one_half_plus_or_minus_the_radius():
    """Over these draws the worst gap is 2**-52 away from the centre and
    2**-53 next to it, where 1/2 +- sqrt(1 - 4 det) / 2 was off by
    1.75 * 2**-52 and 1.4e-10."""
    for p in spectrum_states(1833, 10000):
        high, low = prob_to_density(p).eigenvalues()
        half = math.sqrt(p.radius2)
        assert abs(high - (0.5 + half)) <= 2.0**-52, p
        assert abs(low - (0.5 - half)) <= 2.0**-52, p


def test_the_spectrum_of_a_huge_off_diagonal_is_finite():
    high, low = DensityMatrix2(0.5, 1e200 + 1e200j, 0.5).eigenvalues()
    assert math.isclose(high, math.sqrt(2.0) * 1e200, rel_tol=2.0**-52)
    assert low == -high


@pytest.mark.parametrize("seed", [1805, 1806])
def test_quantum_mean_is_exact_to_a_few_ulps_of_its_terms(seed):
    states = _states(seed, 1000)
    for p, obs in zip(states, _observables(seed, len(states))):
        exact, magnitude = exact_mean(obs, p)
        error = abs(Fraction(quantum_mean(obs, p)) - exact)
        assert error <= REL_BOUND * magnitude, (p, obs)


@pytest.mark.parametrize("p", EDGES)
def test_quantum_mean_is_exact_to_a_few_ulps_at_the_edges(p):
    """Each pole, the centre and the states next to a pole, under every
    observable with coefficients among 0, -1, 1e-3 and 1e3.  A product with
    p3 = 5e-324 underflows, so each of the four terms may also err by the
    least subnormal."""
    p = ProbabilityTriple(*p)
    for v in itertools.product((0.0, -1.0, 1e-3, 1e3), repeat=4):
        exact, magnitude = exact_mean(CoinObservable(*v), p)
        error = abs(Fraction(quantum_mean(CoinObservable(*v), p)) - exact)
        assert error <= REL_BOUND * magnitude + 4 * Fraction(5e-324), v


@pytest.mark.parametrize("seed", [1807])
def test_quantum_mean_overflows_only_where_its_sum_does(seed):
    """Coefficients at and near the float maximum: quantum_mean is the
    correctly rounded sum of the three classical means, and a DomainError
    exactly where that sum, or the z mean alone, lies past the float range."""
    r = random.Random(seed)
    big = [0.0, -0.0, 1.0, 1.7e308, -1.7e308, 1.7976931348623157e308]
    states = _states(seed, 500)
    checked = overflowed = 0
    for p in states:
        obs = CoinObservable(*(r.choice(big) if r.random() < 0.6
                               else 1e308 * r.uniform(-1.0, 1.0) for _ in range(4)))
        means = (obs.x * (2.0 * p.p1 - 1.0), obs.y * (2.0 * p.p2 - 1.0),
                 obs.z1 * p.p3 + obs.z2 * (1.0 - p.p3))
        try:
            exact = float(sum(map(Fraction, means)))
        except (OverflowError, ValueError):  # past the range, or an inf mean
            exact = math.inf
        try:
            value = quantum_mean(obs, p)
        except DomainError:
            overflowed += 1
            assert not math.isfinite(exact), (obs, p)
            continue
        checked += 1
        assert value == exact, (obs, p)
    assert checked > 100 and overflowed > 10


def exact_oracle(p, q, w) -> tuple:
    """The oracle's coins and normalization, exactly, from the floats it
    reads: its kets and weights, whose square roots are rounded.  Every step
    after those is exact."""
    cp, cq, cw = (superposition._canonical(t) for t in (p, q, w))
    (c1, c2), (a0, a1), (b0, b1) = (superposition._ket(c) for c in (cw, cp, cq))
    x0 = _add(_mul(_cx(c1), _cx(a0)), _mul(_cx(c2), _cx(b0)))
    x1 = _add(_mul(_cx(c1), _cx(a1)), _mul(_cx(c2), _cx(b1)))
    n0, n1 = x0[0] ** 2 + x0[1] ** 2, x1[0] ** 2 + x1[1] ** 2
    rho01 = _mul(x0, (x1[0], -x1[1]))
    norm2 = n0 + n1
    return (HALF + rho01[0] / norm2, HALF - rho01[1] / norm2, n0 / norm2), norm2


def _edge_triples():
    """Pure triples at p3 = 0, 1, the least subnormal, 1e-300 and 1 - 2**-53."""
    return [golden._on_circle(p3, 1.0 + i)
            for i, p3 in enumerate([0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53])]


def _oracle_cases() -> list:
    cases = [case[1:4] for case in golden._cases()]
    edges = _edge_triples()
    cases += [(p, q, w) for p in edges for q in edges for w in edges]
    return cases


COIN_BOUND = 2.0 ** -51  # measured 0.86 * 2**-52 over these cases
NORM_BOUND = 2.0 ** -51  # relative; measured 1.96 * 2**-52
NORM_ABS_BOUND = 2.0 ** -49  # absolute, on drawn kets; measured 3.45 * 2**-52


def test_the_oracle_is_exact_to_an_ulp_or_two_on_its_kets():
    checked = 0
    for p, q, w in _oracle_cases():
        try:
            result = superpose_oracle(p, q, w)
        except CoinQubitError:
            continue
        checked += 1
        coins, norm2 = exact_oracle(p, q, w)
        state = result.state
        worst = max(abs(Fraction(a) - b)
                    for a, b in zip((state.p1, state.p2, state.p3), coins))
        assert worst <= COIN_BOUND, (p, q, w, float(worst) / 2.0 ** -52)
        assert abs(Fraction(result.normalization) - norm2) <= NORM_BOUND * norm2
    assert checked >= 200


def _refuse(*args):
    raise AssertionError("libm trigonometry was called")


def test_the_kernels_reach_no_trigonometry(monkeypatch):
    """Every golden pair through the four paths, superpose_checked, the
    classification, purity, fidelity and quantum_mean, with atan2, sin, cos,
    cmath.exp and cmath.rect refusing: the outputs are the golden file's."""
    cases = golden._cases()  # drawn with cos and sin, before they are refused
    classes = [[is_quantum(t) for t in case[1:4]] for case in cases]
    for module, name in ((math, "atan2"), (math, "sin"), (math, "cos"),
                         (cmath, "exp"), (cmath, "rect")):
        monkeypatch.setattr(module, name, _refuse)
    records = [golden._record(i, *case) for i, case in enumerate(cases)]
    assert [[is_quantum(t) for t in case[1:4]] for case in cases] == classes
    monkeypatch.undo()
    assert records == json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


def _typed(z, phi, digits) -> tuple:
    """A pure triple as a user types it: each coin rounded to `digits`."""
    s = math.sqrt(1.0 - z * z) / 2.0
    return tuple(round(x, digits) for x in
                 (0.5 + s * math.cos(phi), 0.5 + s * math.sin(phi), 0.5 + z / 2.0))


unit = st.floats(-1.0, 1.0)
angle = st.floats(0.0, 2.0 * math.pi)


@given(digits=st.integers(7, 15), p=st.tuples(unit, angle), q=st.tuples(unit, angle),
       w=st.tuples(unit, angle), pair=st.sampled_from(["random", "partner", "typed-partner"]))
@settings(max_examples=500, deadline=None)
def test_typed_inputs_keep_every_path_with_the_oracle(digits, p, q, w, pair):
    """Pure triples rounded to 7-15 digits, with a random second state, the
    partner of the first, or that partner rounded too: wherever a path
    succeeds it lies within PATH_AGREE_TOL of the oracle, and where
    superpose_checked succeeds its state is pure and the paths agree."""
    p, w = (ProbabilityTriple(*_typed(*t, digits)) for t in (p, w))
    if pair == "random":
        q = ProbabilityTriple(*_typed(*q, digits))
    else:
        q = ProbabilityTriple(*(round(1.0 - x, digits if pair == "typed-partner" else 17)
                                for x in (p.p1, p.p2, p.p3)))
    try:
        oracle = superpose_oracle(p, q, w).state
    except CoinQubitError:
        oracle = None
    for path in (superpose_general, superpose_orthogonal, superpose_spinor):
        try:
            state = path(p, q, w).state
        except CoinQubitError:
            continue
        assert oracle is not None, path.__name__
        gap = max(abs(state.p1 - oracle.p1), abs(state.p2 - oracle.p2),
                  abs(state.p3 - oracle.p3))
        assert gap < PATH_AGREE_TOL, path.__name__
    try:
        result, agree = superpose_checked(p, q, w)
    except CoinQubitError:
        return
    assert result.state.is_pure and agree


@given(p=st.tuples(st.floats(0.0, 1.0), angle), q=st.tuples(st.floats(0.0, 1.0), angle),
       w=st.tuples(st.floats(0.0, 1.0), angle), turn=st.sampled_from([None, 0.0, math.pi]))
@settings(max_examples=600, deadline=None)
def test_the_oracle_is_exact_to_an_ulp_or_two_on_drawn_kets(p, q, w, turn):
    """Drawn pure triples, with q at p's p3 and p's phase turned by `turn`
    where it is given, so that the norm can nearly vanish: the coins err by
    at most COIN_BOUND / min(1, norm2), since they are quotients by the norm
    (1.06 * 2**-52 at most over 1.2e5 draws), and the norm by NORM_ABS_BOUND."""
    if turn is not None:
        q = (p[0], p[1] + turn)
    p, q, w = (golden._on_circle(*t) for t in (p, q, w))
    try:
        state = superpose_oracle(p, q, w)
    except CoinQubitError:
        return
    coins, norm2 = exact_oracle(p, q, w)
    worst = max(abs(Fraction(a) - b) for a, b in
                zip((state.state.p1, state.state.p2, state.state.p3), coins))
    assert worst * min(1, norm2) <= COIN_BOUND
    assert abs(Fraction(state.normalization) - norm2) <= NORM_ABS_BOUND
