import statistics
import time

import pytest

np = pytest.importorskip("numpy")

from coinqubit import (
    ClassicalStateError,
    CoinObservable,
    DomainError,
    ProbabilityTriple,
    classical_means,
    prob_to_density,
    quantum_mean,
    second_moments,
)
from conftest import random_quantum, random_valid


def test_observable_rejects_non_finite():
    with pytest.raises(DomainError):
        CoinObservable(float("inf"), 0, 0, 0)


def test_classical_means_fixtures():
    up = ProbabilityTriple(0.5, 0.5, 1.0)
    assert classical_means(CoinObservable(0, 0, 1, -1), up) == (0.0, 0.0, 1.0)
    plus = ProbabilityTriple(1.0, 0.5, 0.5)
    assert classical_means(CoinObservable(1, 0, 0, 0), plus) == (1.0, 0.0, 0.0)
    obs = CoinObservable(1, 2, 3, -1)
    means = classical_means(obs, ProbabilityTriple(0.6, 0.7, 0.8))
    assert means == pytest.approx((0.2, 0.8, 2.2), abs=1e-12)


def test_second_moments():
    obs = CoinObservable(2, -3, 3, -1)
    p = ProbabilityTriple(0.3, 0.9, 0.8)
    mx, my, mz = second_moments(obs, p)
    assert mx == 4.0 and my == 9.0
    assert mz == pytest.approx(7.4, abs=1e-12)
    # x and y moments do not depend on the state
    assert second_moments(obs, ProbabilityTriple(0, 0, 0))[:2] == (4.0, 9.0)
    with pytest.raises(DomainError):  # 1.4e154 squared is past the float maximum
        second_moments(CoinObservable(1.4e154, 0, 0, 0), p)
    # degenerate z variable: constant second moment
    obs_const = CoinObservable(0, 0, 5, 5)
    for p3 in (0.0, 0.3, 1.0):
        assert second_moments(obs_const, ProbabilityTriple(0.5, 0.5, p3))[
            2
        ] == pytest.approx(25.0)


def test_quantum_mean_fixtures():
    assert quantum_mean(
        CoinObservable(0, 0, 1, -1), ProbabilityTriple(0.5, 0.5, 1.0)
    ) == pytest.approx(1.0)
    assert quantum_mean(
        CoinObservable(1, 0, 0, 0), ProbabilityTriple(1.0, 0.5, 0.5)
    ) == pytest.approx(1.0)
    # frozen from both routes: matrix trace and classical sum 0.2+0.8+2.2
    assert quantum_mean(
        CoinObservable(1, 2, 3, -1), ProbabilityTriple(0.6, 0.7, 0.8)
    ) == pytest.approx(3.2, abs=1e-12)


def test_quantum_mean_rejects_classical():
    with pytest.raises(ClassicalStateError):
        quantum_mean(CoinObservable(1, 0, 0, 0), ProbabilityTriple(1, 1, 1))


def test_mean_identity_random(rng):
    for _ in range(1000):
        p = random_quantum(rng)
        obs = CoinObservable(*rng.uniform(-2, 2, size=4))
        trace = float(
            np.trace(prob_to_density(p).as_array() @ obs.matrix()).real
        )
        assert abs(quantum_mean(obs, p) - trace) < 1e-12
        assert abs(trace - sum(classical_means(obs, p))) < 1e-10


def test_quantum_mean_is_linear_in_observable(rng):
    for _ in range(100):
        p = random_quantum(rng)
        a = CoinObservable(*rng.uniform(-2, 2, size=4))
        b = CoinObservable(*rng.uniform(-2, 2, size=4))
        s = rng.uniform(-3, 3)
        combined = CoinObservable(
            a.x + s * b.x, a.y + s * b.y, a.z1 + s * b.z1, a.z2 + s * b.z2
        )
        assert quantum_mean(combined, p) == pytest.approx(
            quantum_mean(a, p) + s * quantum_mean(b, p), abs=1e-10
        )


def test_classical_means_allow_classical_triples(rng):
    obs = CoinObservable(1, 1, 1, 1)
    for _ in range(20):
        classical_means(obs, random_valid(rng))


def _float_loop():
    """Time of a fixed scalar loop through libm's pow."""
    x = 1.5
    start = time.perf_counter()
    for _ in range(1000):
        x ** 2
    return time.perf_counter() - start


def test_quantum_mean_leaves_scalar_floats_fast():
    """A 2x2 complex matmul (OpenBLAS zgemm) can leave the vector unit in a
    state that slows later scalar float code until a SIMD ufunc runs;
    quantum_mean must not leave it so."""
    m = np.array([[1.0, 2j], [3.0, 4.0]])
    ket = np.ones(2, dtype=complex)
    obs = CoinObservable(1.0, 2.0, 3.0, -1.0)
    p = ProbabilityTriple(0.6, 0.7, 0.8)
    clean, matmul, mean = [], [], []
    for _ in range(200):
        np.multiply(ket, ket)
        clean.append(_float_loop())
        m @ m
        matmul.append(_float_loop())
        np.multiply(ket, ket)
        quantum_mean(obs, p)
        mean.append(_float_loop())
    clean_median = statistics.median(clean)
    if statistics.median(matmul) < 2.0 * clean_median:
        pytest.skip("a 2x2 complex matmul does not slow float code here")
    assert statistics.median(mean) < 1.5 * clean_median
