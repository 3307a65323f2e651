import contextlib
import math
import statistics
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from conftest import exact_fma, needs_fused_numpy, random_quantum, random_valid


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
    obs = CoinObservable(2, 0, 3, -1)
    p = ProbabilityTriple(0.3, 0.9, 0.8)
    mx, my, mz = second_moments(obs, p)
    assert mx == 4.0 and my == 0.0
    assert mz == pytest.approx(7.4, abs=1e-12)
    # x and y moments do not depend on the state
    assert second_moments(obs, ProbabilityTriple(0, 0, 0))[:2] == (4.0, 0.0)
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


def test_quantum_mean_checks_identity_without_assert(monkeypatch):
    """The trace/classical-sum check is an explicit raise, so it survives -O."""
    import coinqubit.observables as observables

    monkeypatch.setattr(
        observables, "classical_means", lambda obs, p: (1.0, 0.0, 0.0)
    )
    with pytest.raises(ArithmeticError, match="disagree"):
        quantum_mean(CoinObservable(0, 0, 0, 0), ProbabilityTriple(0.5, 0.5, 0.5))


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


def _trace_reference(obs, p):
    """Tr(rho H) as np.trace of the matrix product, the printed bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.trace(prob_to_density(p).as_array() @ obs.matrix()).real)


def _numpy_mean(obs, p):
    """quantum_mean's matrix trace as numpy computed it, before it ran on
    plain floats, with the checks that follow it."""
    means = classical_means(obs, p)
    if not math.isfinite(sum(means)):
        raise DomainError(f"mean overflows: classical sum {sum(means)}")
    big = max(map(abs, (obs.x, obs.y, obs.z1, obs.z2))) > sys.float_info.max / 4
    with (np.errstate(over="ignore", invalid="ignore") if big
          else contextlib.nullcontext()):
        prod = prob_to_density(p).as_array() @ obs.matrix()
        value = float(np.add(prod[0, 0], 0.0 + prod[1, 1]).real)
    if not math.isfinite(value):
        raise DomainError(f"mean overflows: matrix trace {value}")
    return value


def _exact_trace(obs, p):
    """The diagonal of rho @ H with each fused multiply-add of zgemm rounded
    once from exact rationals, summed as np.trace sums it."""
    h = obs.matrix().tolist()
    rho = prob_to_density(p).as_array().tolist()

    def diagonal(i):
        (a, u), (b, v) = rho[i], (h[0][i], h[1][i])
        return exact_fma(u.real, v.real, exact_fma(
            -u.imag, v.imag, exact_fma(a.real, b.real, -(a.imag * b.imag))))

    return diagonal(0) + (0.0 + diagonal(1))


def _trace_cases(rng):
    """(observable, state): signed zeros at the centre and the poles, then
    random states with small, near-maximum and maximum coefficients."""
    big = sys.float_info.max
    points = [ProbabilityTriple(*p) for p in
              ((0.5, 0.5, 0.5), (0.5, 0.5, 1.0), (0.5, 0.5, 0.0), (1.0, 0.5, 0.5))]
    # (-1, 1, -0, -0) at (0.5, 0.5, 1) gives d00 = d11 = -0.0, a trace of +0.0
    cases = [(CoinObservable(*signs), p) for p in points
             for signs in ((-0.0,) * 4, (0.0,) * 4, (-0.0, 0.0, -0.0, 0.0),
                           (-1.0, 1.0, -0.0, -0.0))]
    for _ in range(2000):
        p = random_quantum(rng)
        cases.append((CoinObservable(*rng.uniform(-2, 2, size=4)), p))
        cases.append((CoinObservable(*(big * rng.uniform(-1, 1, size=4))), p))
        cases.append((CoinObservable(*(big * rng.uniform(0.999, 1, size=4)
                                       * rng.choice([-1.0, 1.0], size=4))), p))
    return cases


def _assert_keeps_the_bits_of(reference, cases):
    means = 0
    for obs, p in cases:
        value_reference = reference(obs, p)
        try:
            value = quantum_mean(obs, p)
        except DomainError:
            assert not (math.isfinite(value_reference)
                        and math.isfinite(sum(classical_means(obs, p))))
            continue
        means += 1
        assert value.hex() == value_reference.hex()  # the sign of zero too
    assert means > len(cases) // 2


@needs_fused_numpy
def test_quantum_mean_keeps_the_bits_of_np_trace(rng):
    """The diagonal sum equals np.trace bit for bit, the sign of zero too."""
    _assert_keeps_the_bits_of(_trace_reference, _trace_cases(rng))


def test_quantum_mean_keeps_the_bits_of_the_exact_trace(rng):
    """The same cases against exactly rounded fused multiply-adds, so they
    also run where numpy does not round fused."""
    _assert_keeps_the_bits_of(_exact_trace, _trace_cases(rng))


EDGE_P3 = [0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 0.5]
EDGE_COEFFICIENTS = [0.0, -0.0, 1.0, -1.0, 1.7e308, -1.7e308, sys.float_info.max]


@st.composite
def mean_inputs(draw):
    """A quantum triple (p3 often at an edge, the radius from the centre to
    the surface) and an observable with coefficients often at an edge."""
    p3 = draw(st.one_of(st.sampled_from(EDGE_P3), st.floats(0.0, 1.0)))
    r = math.sqrt(p3 * (1.0 - p3)) * draw(st.sampled_from([1.0, 0.5, 0.0]))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    p = ProbabilityTriple(0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi), p3)
    coefficient = st.one_of(st.sampled_from(EDGE_COEFFICIENTS),
                            st.floats(-1e3, 1e3), st.floats(-1.7e308, 1.7e308))
    return CoinObservable(*(draw(coefficient) for _ in range(4))), p


def _mean_outcome(f, obs, p):
    try:
        return f(obs, p).hex()
    except DomainError as exc:
        return str(exc)


@needs_fused_numpy
@given(inputs=mean_inputs())
@example(inputs=(CoinObservable(0.0, 1.0, 1.7e308, -1.7e308),  # the z mean cancels
                 ProbabilityTriple(0.7701511529340699, 0.9207354924039483, 0.5)))
@settings(max_examples=500, deadline=None)
def test_quantum_mean_keeps_the_bits_of_the_numpy_form(inputs):
    """Value or error message, against the numpy arithmetic it replaced."""
    assert (_mean_outcome(quantum_mean, *inputs)
            == _mean_outcome(_numpy_mean, *inputs))


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
