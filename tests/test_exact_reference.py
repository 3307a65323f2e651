"""The scalar closed forms against exact rational arithmetic.

``purity``, ``fidelity`` and ``quantum_mean`` are polynomials in their float
inputs, so ``fractions.Fraction`` gives their true values with no rounding.
Each is compared with that value on seeded states inside the ball, on the
sphere, at the six poles and the centre, and next to a pole.  The bounds are
a few units in the last place: over 2e4 states and pairs drawn as here,
the worst errors were 5.5 * 2**-52 (purity), 7.9 * 2**-52 (fidelity) and
2.8 * 2**-53 times the sum of the term magnitudes (quantum_mean).
"""

import math
import random
from fractions import Fraction

import pytest

from coinqubit import CoinObservable, ProbabilityTriple, fidelity, purity, quantum_mean

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


def exact_mean(obs: CoinObservable, p: ProbabilityTriple) -> tuple:
    """Tr(rho H) exactly, and the sum of its terms' magnitudes.

    rho = [[p3, a - ib], [a + ib, 1 - p3]] with a = p1 - 1/2, b = p2 - 1/2,
    and H = [[z1, x - iy], [x + iy, z2]]; the two off-diagonal products are
    conjugates, so together they give 2 Re((a - ib)(x + iy)) = 2 (ax + by).
    """
    p1, p2, p3 = _exact(p)
    x, y, z1, z2 = map(Fraction, (obs.x, obs.y, obs.z1, obs.z2))
    terms = (2 * (p1 - HALF) * x, 2 * (p2 - HALF) * y, p3 * z1, (1 - p3) * z2)
    return sum(terms), sum(map(abs, terms))


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


@pytest.mark.parametrize("seed", [1805, 1806])
def test_quantum_mean_is_exact_to_a_few_ulps_of_its_terms(seed):
    states = _states(seed, 1000)
    for p, obs in zip(states, _observables(seed, len(states))):
        exact, magnitude = exact_mean(obs, p)
        error = abs(Fraction(quantum_mean(obs, p)) - exact)
        assert error <= REL_BOUND * magnitude, (p, obs)
