import ast
import cmath
import json
import math
import pathlib
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinqubit import (
    ClassicalStateError,
    DensityMatrix2,
    DomainError,
    NotPureError,
    ProbabilityTriple,
    coin_phase,
    Spinor2,
    coins_to_complex,
    complex_to_coins,
    density_to_prob,
    fidelity,
    is_quantum,
    prob_to_density,
    prob_to_spinor,
    purity,
    spinor_to_prob,
)
from coinqubit.cli import main
from coinqubit.states import (
    _FMA_HI,
    _FMA_LO,
    BALL_TOL,
    POLE_TOL,
    SPILL_TOL,
    _cmul,
    _fma,
    _unit_interval,
)
from conftest import (
    exact_cmul,
    exact_fma,
    needs_fused_numpy,
    random_pure,
    random_quantum,
    random_valid,
)

probs = st.floats(min_value=0.0, max_value=1.0)


class TestProbabilityTriple:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            ProbabilityTriple(1.2, 0.5, 0.5)
        with pytest.raises(DomainError):
            ProbabilityTriple(0.5, -0.1, 0.5)
        with pytest.raises(DomainError):
            ProbabilityTriple(float("nan"), 0.5, 0.5)

    def test_absorbs_floating_spill(self):
        p = ProbabilityTriple(1.0 + 1e-14, -1e-14, 0.5)
        assert p.p1 == 1.0 and p.p2 == 0.0

    def test_classical_triples_are_constructible(self):
        assert ProbabilityTriple(1, 1, 1).classify() == "classical"

    def test_json_round_trip(self):
        p = ProbabilityTriple(0.3, 0.6, 0.7)
        assert ProbabilityTriple.from_json_dict(p.to_json_dict()) == p

    def test_json_rejects_wrong_kind(self):
        with pytest.raises(DomainError):
            ProbabilityTriple.from_json_dict({"kind": "other", "p1": 0.5})


def _old_unit_interval(value, name):
    """_unit_interval as it was written before its in-range early return."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if -SPILL_TOL <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + SPILL_TOL:
        return 1.0
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _unit_outcome(check, value):
    try:
        result = check(value, "p1")
    except DomainError as exc:
        return str(exc)
    return type(result), result.hex()


class TestUnitInterval:
    def test_keeps_the_sign_of_negative_zero(self):
        assert math.copysign(1.0, _unit_interval(-0.0, "p1")) == -1.0

    @pytest.mark.parametrize("value, expected", [
        (-SPILL_TOL, 0.0), (1.0 + SPILL_TOL, 1.0),
    ])
    def test_absorbs_spill_up_to_the_tolerance(self, value, expected):
        assert _unit_interval(value, "p1") == expected

    @pytest.mark.parametrize("value", [
        math.nextafter(-SPILL_TOL, -math.inf), math.nextafter(1.0 + SPILL_TOL, 2.0),
    ])
    def test_rejects_spill_past_the_tolerance(self, value):
        with pytest.raises(DomainError, match=r"p1 must lie in \[0, 1\], got "):
            _unit_interval(value, "p1")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(DomainError, match=f"^p1 must be finite, got {value!r}$"):
            _unit_interval(value, "p1")

    @pytest.mark.parametrize("value, expected", [
        (0, 0.0), (1, 1.0), (True, 1.0), (False, 0.0), (np.float64(0.25), 0.25),
    ])
    def test_accepts_ints_bools_and_numpy_floats(self, value, expected):
        result = _unit_interval(value, "p1")
        assert type(result) is float and result == expected

    @given(value=st.one_of(st.floats(), st.floats(-2e-12, 1.0 + 2e-12),
                           st.integers(-3, 3), st.booleans()))
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_old_checks(self, value):
        assert _unit_outcome(_unit_interval, value) == _unit_outcome(
            _old_unit_interval, value)


class TestClassification:
    @pytest.mark.parametrize(
        "triple, expected_class, expected_r2",
        [
            ((0.5, 0.5, 0.5), "mixed", 0.0),
            ((1.0, 1.0, 1.0), "classical", 0.75),
            ((1.0, 0.5, 0.5), "pure", 0.25),
            ((0.5, 0.5, 1.0), "pure", 0.25),
        ],
    )
    def test_fixtures(self, triple, expected_class, expected_r2):
        kind, r2 = is_quantum(ProbabilityTriple(*triple))
        assert kind == expected_class
        assert r2 == pytest.approx(expected_r2, abs=1e-15)

    def test_one_verdict_across_the_ball_tolerance(self, capsys):
        # p2 = 0.9 -/+ 1.25e-9 puts radius2 - 1/4 at about -/+ BALL_TOL; walk
        # p2 from 32 ulps below to 32 ulps above each edge.
        seen = set()
        for edge in (0.89999999875, 0.90000000125):
            p2 = edge
            for _ in range(32):
                p2 = math.nextafter(p2, 0.0)
            for _ in range(65):
                p = ProbabilityTriple(0.8, p2, 0.5)
                kind = p.classify()
                assert (kind == "pure") == p.is_pure, p2
                assert (kind != "classical") == p.is_quantum, p2
                seen.add((edge, kind))
                p2 = math.nextafter(p2, 1.0)
        assert seen == {
            (0.89999999875, "mixed"), (0.89999999875, "pure"),
            (0.90000000125, "pure"), (0.90000000125, "classical"),
        }
        state = ["--p1", "0.8", "--p2", "0.90000000125", "--p3", "0.5"]
        assert main(["check", *state]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "classical"
        assert main(["purity", *state]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "classical-state"

    def test_eigenvalues_nonnegative_iff_quantum(self, rng):
        for _ in range(500):
            p = random_valid(rng)
            rho = prob_to_density(p)
            low = rho.eigenvalues()[1]
            if p.is_quantum:
                assert low >= -1e-9
            else:
                assert low < 1e-9


class TestDensityBijection:
    @pytest.mark.parametrize(
        "triple, matrix",
        [
            ((0.5, 0.5, 1.0), [[1, 0], [0, 0]]),
            ((0.5, 0.5, 0.5), [[0.5, 0], [0, 0.5]]),
            ((1.0, 0.5, 0.5), [[0.5, 0.5], [0.5, 0.5]]),
        ],
    )
    def test_prob_to_density_fixtures(self, triple, matrix):
        rho = prob_to_density(ProbabilityTriple(*triple))
        assert np.allclose(rho.as_array(), np.array(matrix), atol=1e-15)

    def test_density_to_prob_fixtures(self):
        up = DensityMatrix2.from_array(np.array([[1, 0], [0, 0]]))
        assert density_to_prob(up) == ProbabilityTriple(0.5, 0.5, 1.0)
        # p2 = 0 means Im rho01 = +1/2 under the defining map
        y = DensityMatrix2.from_array(
            np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        )
        assert density_to_prob(y) == ProbabilityTriple(0.5, 0.0, 0.5)

    # Probabilities on the 2**-53 grid (everything a 53-bit uniform
    # sampler can emit) subtract from 1/2 without rounding, so the round
    # trip is bit exact there.
    grid_probs = st.integers(min_value=0, max_value=2**53).map(
        lambda k: k / 2.0**53
    )

    @given(p1=grid_probs, p2=grid_probs, p3=grid_probs)
    @settings(max_examples=300)
    def test_round_trip_is_exact_on_sampling_grid(self, p1, p2, p3):
        p = ProbabilityTriple(p1, p2, p3)
        assert density_to_prob(prob_to_density(p)) == p

    # Arbitrary doubles below 1/4 can sit on a finer grid than p - 1/2,
    # so the off-diagonal rounds; each of the two shifts by 1/2 costs at
    # most half an ulp of a value near 1/2, hence the 2**-53 bound.
    @given(p1=probs, p2=probs, p3=probs)
    @settings(max_examples=300)
    def test_round_trip_within_rounding_everywhere(self, p1, p2, p3):
        p = ProbabilityTriple(p1, p2, p3)
        back = density_to_prob(prob_to_density(p))
        for a, b in zip(back.vec(), p.vec()):
            assert abs(a - b) <= 2.0**-53

    def test_classical_triple_gives_indefinite_matrix(self):
        rho = prob_to_density(ProbabilityTriple(1, 1, 1))
        assert not rho.is_nonnegative

    def test_from_array_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            DensityMatrix2.from_array(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_from_array_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix2.from_array(np.array([[0.8, 0.0], [0.0, 0.8]]))

    def test_from_array_rejects_wrong_shape(self):
        with pytest.raises(DomainError,
                           match=r"^expected a 2x2 matrix, got shape \(3, 3\)$"):
            DensityMatrix2.from_array(np.eye(3))


class TestPurityAndFidelity:
    def test_purity_fixtures(self):
        assert purity(ProbabilityTriple(0.5, 0.5, 1.0)) == pytest.approx(1.0)
        assert purity(ProbabilityTriple(0.5, 0.5, 0.5)) == pytest.approx(0.5)
        # frozen from the matrix route: Tr rho^2 for (0.6, 0.6, 0.6)
        assert purity(ProbabilityTriple(0.6, 0.6, 0.6)) == pytest.approx(
            0.56, abs=1e-12
        )

    def test_purity_matches_matrix_trace(self, rng):
        for _ in range(200):
            p = random_quantum(rng)
            rho = prob_to_density(p).as_array()
            assert purity(p) == pytest.approx(
                float(np.trace(rho @ rho).real), abs=1e-12
            )

    def test_purity_radius_identity(self, rng):
        for _ in range(200):
            p = random_quantum(rng)
            assert purity(p) == pytest.approx(0.5 + 2.0 * p.radius2, abs=1e-12)

    def test_purity_rejects_classical(self):
        with pytest.raises(ClassicalStateError):
            purity(ProbabilityTriple(1, 1, 1))

    def test_fidelity_fixtures(self):
        up = ProbabilityTriple(0.5, 0.5, 1.0)
        down = ProbabilityTriple(0.5, 0.5, 0.0)
        plus = ProbabilityTriple(1.0, 0.5, 0.5)
        assert fidelity(up, down) == pytest.approx(0.0, abs=1e-15)
        assert fidelity(plus, plus) == pytest.approx(1.0, abs=1e-15)
        # frozen from the matrix route: Tr(rho_up rho_plus)
        assert fidelity(up, plus) == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_matches_matrix_trace_and_is_symmetric(self, rng):
        for _ in range(200):
            p, q = random_quantum(rng), random_quantum(rng)
            oracle = float(
                np.trace(
                    prob_to_density(p).as_array() @ prob_to_density(q).as_array()
                ).real
            )
            assert fidelity(p, q) == pytest.approx(oracle, abs=1e-12)
            assert fidelity(p, q) == pytest.approx(fidelity(q, p), abs=1e-15)

    def test_fidelity_rejects_classical(self):
        with pytest.raises(ClassicalStateError):
            fidelity(ProbabilityTriple(1, 1, 1), ProbabilityTriple(0.5, 0.5, 0.5))

    def test_values_inside_the_ball_tolerance_are_not_clamped(self, capsys):
        """radius2 = 1/4 + 9e-10: purity lies in [1/2, 1 + 2 BALL_TOL] and
        fidelity in [-2 BALL_TOL, 1 + 2 BALL_TOL], and both print unclamped."""
        state = ["--p1", "1", "--p2", "0.50003", "--p3", "0.5"]
        assert main(["purity", *state]) == 0
        out = capsys.readouterr().out
        assert out == '{"purity": 1.0000000017999997}\n'
        assert 1.0 < json.loads(out)["purity"] <= 1.0 + 2.0 * BALL_TOL
        assert main(["fidelity", *state,
                     "--q1", "0", "--q2", "0.49997", "--q3", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out == '{"fidelity": -1.8000001489326678e-09}\n'
        assert -2.0 * BALL_TOL <= json.loads(out)["fidelity"] < 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda x: DensityMatrix2(x, 0.0, 0.5),
    lambda x: DensityMatrix2(0.5, x, 0.5),
    lambda x: DensityMatrix2(0.5, complex(0.0, x), 0.5),
    lambda x: DensityMatrix2(0.5, 0.0, x),
    lambda x: DensityMatrix2(x, 0.0, -x),
    lambda x: DensityMatrix2.from_array(np.array([[0.5, x], [x, 0.5]])),
    lambda x: Spinor2(x, 0.0, 0.0),
    lambda x: Spinor2(1.0, x, 0.0),
    lambda x: Spinor2(1.0, 0.0, x),
], ids=["rho00", "rho01", "rho01.imag", "rho11", "rho00=-rho11", "from_array",
        "amplitude0", "amplitude1", "phase"])
def test_non_finite_fields_are_domain_errors(make, bad):
    with pytest.raises(DomainError):
        make(bad)


class TestSpinorBijection:
    def test_fixtures(self):
        s = prob_to_spinor(ProbabilityTriple(1.0, 0.5, 0.5))
        assert (s.amplitude0, s.amplitude1) == pytest.approx(
            (math.sqrt(0.5), math.sqrt(0.5))
        )
        assert s.phase == pytest.approx(0.0, abs=1e-15)

        s = prob_to_spinor(ProbabilityTriple(0.5, 1.0, 0.5))
        assert s.phase == pytest.approx(math.pi / 2.0, abs=1e-12)

        s = prob_to_spinor(ProbabilityTriple(0.5, 0.5, 1.0))
        assert (s.amplitude0, s.amplitude1, s.phase) == (1.0, 0.0, 0.0)

    def test_rejects_non_pure(self):
        with pytest.raises(NotPureError):
            prob_to_spinor(ProbabilityTriple(0.5, 0.5, 0.5))

    def test_spinor_to_prob_fixtures(self):
        p = spinor_to_prob(Spinor2(math.sqrt(0.5), math.sqrt(0.5), 0.0))
        assert p.vec() == pytest.approx([1.0, 0.5, 0.5], abs=1e-15)
        assert spinor_to_prob(Spinor2(1.0, 0.0, 2.7)) == ProbabilityTriple(
            0.5, 0.5, 1.0
        )

    def test_spinor_output_is_pure(self, rng):
        for _ in range(200):
            p3 = rng.uniform()
            s = Spinor2(math.sqrt(p3), math.sqrt(1.0 - p3), rng.uniform(0, 6.28))
            assert spinor_to_prob(s).is_pure

    def test_round_trip_away_from_poles(self, rng):
        for _ in range(1000):
            p = random_pure(rng, z_margin=0.01)
            back = spinor_to_prob(prob_to_spinor(p))
            assert abs(back.vec() - p.vec()).max() < 1e-10

    def test_spinor_rejects_bad_norm(self):
        with pytest.raises(DomainError):
            Spinor2(1.0, 1.0, 0.0)

    def test_pole_convention_compares_the_azimuth_radius(self):
        # the phase is 0 only when hypot(p1 - 1/2, p2 - 1/2) <= POLE_TOL
        for radius in (1e-7, 1e-11):
            p = ProbabilityTriple(
                0.5 + radius * math.cos(2.0), 0.5 + radius * math.sin(2.0), 0.5
            )
            assert coin_phase(p) == pytest.approx(2.0, abs=1e-4)
        assert coin_phase(ProbabilityTriple(0.5, 0.5 - 1e-13, 0.5)) == 0.0
        p3 = 1e-13  # a pure state whose azimuth radius is 3e-7
        r = math.sqrt(p3 * (1.0 - p3))
        near_pole = ProbabilityTriple(
            0.5 + r * math.cos(2.0), 0.5 + r * math.sin(2.0), p3
        )
        assert prob_to_spinor(near_pole).phase == pytest.approx(2.0, abs=1e-8)
        assert cmath.phase(coins_to_complex(near_pole)) == pytest.approx(
            2.0, abs=1e-8
        )


class TestComplexCoins:
    def test_fixtures(self):
        assert complex_to_coins(0.0) == ProbabilityTriple(0.5, 0.5, 0.0)
        assert complex_to_coins(1.0) == ProbabilityTriple(0.5, 0.5, 1.0)
        p = complex_to_coins((1.0 + 1.0j) / 2.0)
        assert p.p3 == pytest.approx(0.5, abs=1e-15)
        assert p.p1 == pytest.approx(0.5 + 0.5 / math.sqrt(2.0), abs=1e-15)
        assert p.p2 == pytest.approx(0.5 + 0.5 / math.sqrt(2.0), abs=1e-15)

    def test_rejects_outside_disk(self):
        with pytest.raises(DomainError):
            complex_to_coins(1.0 + 1.0j)

    def test_the_phase_is_dropped_where_coin_phase_reads_a_pole(self):
        # the azimuth radius 1.000001e-12 is above POLE_TOL, but the triple's
        # rounded hypot(p1 - 1/2, p2 - 1/2) is 9.9997e-13, at a pole
        z = cmath.rect(1.000001e-12, 0.67)
        p = complex_to_coins(z)
        assert p == complex_to_coins(abs(z)) == ProbabilityTriple(
            0.5 + 1.000001e-12, 0.5, 1.000002000001e-24
        )
        assert coin_phase(p) == 0.0 and coins_to_complex(p).imag == 0.0

    @given(ppm=st.integers(-300, 300), ulps=st.integers(-64, 64),
           phase=st.floats(0.001, 2.0 * math.pi - 0.001))
    @settings(max_examples=400, deadline=None)
    def test_one_pole_verdict_across_pole_tol(self, ppm, ulps, phase):
        """|z| = POLE_TOL (1 + ppm 1e-6), moved by `ulps` steps of nextafter:
        complex_to_coins keeps the phase of z exactly where coin_phase of
        the triple it builds is nonzero.  Phases next to 0 mod 2*pi are left
        out: there coin_phase rounds 2*pi - 1e-16 to 0, the nearest phase."""
        mag = POLE_TOL * (1.0 + ppm * 1e-6)
        for _ in range(abs(ulps)):
            mag = math.nextafter(mag, math.copysign(math.inf, ulps))
        z = cmath.rect(mag, phase)
        p = complex_to_coins(z)
        assert p == complex_to_coins(abs(z)) or coin_phase(p) != 0.0

    def test_circle_identities(self, rng):
        for _ in range(500):
            p = complex_to_coins(
                cmath.rect(math.sqrt(rng.uniform()), rng.uniform(0, 6.28))
            )
            d1, d2, d3 = p.p1 - 0.5, p.p2 - 0.5, p.p3 - 0.5
            assert d1 * d1 + d2 * d2 == pytest.approx(
                p.p3 * (1 - p.p3), abs=1e-10
            )
            assert d2 * d2 + d3 * d3 == pytest.approx(
                p.p1 * (1 - p.p1), abs=1e-10
            )
            assert d3 * d3 + d1 * d1 == pytest.approx(
                p.p2 * (1 - p.p2), abs=1e-10
            )

    def test_round_trip(self, rng):
        for _ in range(500):
            z = cmath.rect(
                math.sqrt(rng.uniform(0.01, 0.99)), rng.uniform(0, 6.28)
            )
            assert abs(coins_to_complex(complex_to_coins(z)) - z) < 1e-10


doubles = st.floats(allow_nan=False, allow_infinity=False)  # zeros, subnormals too
MAX = sys.float_info.max


def _bits(x: float) -> str:
    return x.hex()  # tells -0.0 from 0.0; "inf", "-inf" and "nan" as such


def _fast_path_edges():
    """(a, b) with |a*b| just inside and outside the fast path's range, and
    splits of a huge factor that overflow though a*b lies inside it."""
    pairs = []
    for edge in (_FMA_LO, _FMA_HI):
        for scale in (1.0 - 2.0 ** -52, 1.0, 1.0 + 2.0 ** -52):
            for b in (1.0, 3.0, 2.0 ** 40 + 1.0, 0.7):
                pairs.append((edge * scale / b, b))
    pairs += [(2.0 ** 1000 + 2.0 ** 960, 2.0 ** -100 * 3.0),
              (MAX, 2.0 ** -70 * 1.5), (5e-324, 2.0 ** 1000), (-5e-324, -MAX)]
    return pairs


class TestFma:
    @given(a=doubles, b=doubles, c=doubles)
    @settings(max_examples=1500, deadline=None)
    def test_rounds_once(self, a, b, c):
        assert _bits(_fma(a, b, c)) == _bits(exact_fma(a, b, c))

    @given(a=doubles, b=doubles, tilt=st.sampled_from([0.0, 2.0 ** -52, -2.0 ** -53]))
    @settings(max_examples=500, deadline=None)
    def test_cancellation(self, a, b, tilt):
        """c = -(a*b) leaves only the product's rounding error."""
        c = -(a * b) * (1.0 + tilt)
        if math.isfinite(c):
            assert _bits(_fma(a, b, c)) == _bits(exact_fma(a, b, c))

    def test_fast_path_edges(self):
        for a, b in _fast_path_edges():
            for c in (0.0, -0.0, 1.0, -3e-300, 2.0 ** 950, -MAX, -(a * b)):
                for sa, sb in ((a, b), (b, a), (-a, b)):
                    assert _bits(_fma(sa, sb, c)) == _bits(exact_fma(sa, sb, c))

    @pytest.mark.parametrize("a, b, c, expected", [
        (MAX, 2.0, -MAX, MAX),  # a*b alone overflows
        (MAX, 1.0, MAX, math.inf),
        (-MAX, 1.0, -MAX, -math.inf),
        (MAX, 1.0 + 2.0 ** -52, 0.0, math.inf),
        (MAX, 1.0, 2.0 ** 969, MAX),  # below half an ulp
        (MAX, 1.0, 2.0 ** 970, math.inf),  # a tie, to even: up
        (-MAX, 1.0, -(2.0 ** 970) * (1 - 2.0 ** -53), -MAX),
        (1e308, 10.0, -math.inf, -math.inf),  # a*b + c would be nan
        (math.inf, 0.0, 1.0, math.nan),
        (math.inf, 2.0, -math.inf, math.nan),
        (-math.inf, 2.0, 1.0, -math.inf),
        (2.0, 3.0, math.inf, math.inf),
        (2.0, 3.0, math.nan, math.nan),
        (-0.0, 5.0, -0.0, -0.0),
        (0.0, -5.0, 0.0, 0.0),
        (2.0 ** -600, -(2.0 ** -600), 0.0, -0.0),  # underflows, keeps its sign
        (2.0 ** -537, -(2.0 ** -537), 5e-324, 0.0),  # cancels exactly: +0
        (1.5 * 2.0 ** -600, 2.0 ** -475, -0.0, 5e-324),  # up to the least subnormal
        (2.0 ** -600, 2.0 ** -475, -0.0, 0.0),  # half of it: a tie, to even
    ])
    def test_matches_ieee(self, a, b, c, expected):
        assert _bits(_fma(a, b, c)) == _bits(expected)

    @pytest.mark.skipif(not hasattr(math, "fma"), reason="math.fma is new in 3.13")
    def test_matches_math_fma(self):
        """Python's own fused multiply-add, on seeded edge-heavy triples.
        Where it raises (OverflowError on overflow, ValueError on inf*0),
        _fma returns IEEE's +-inf or nan."""
        r = random.Random(20261019)
        edges = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, MAX, -MAX, _FMA_LO,
                 _FMA_HI, sys.float_info.min, math.inf, -math.inf, math.nan]

        def draw():
            k = r.random()
            if k < 0.2:
                return r.choice(edges)
            if k < 0.5:
                return r.uniform(-2.0, 2.0)
            return math.ldexp(r.uniform(-1.0, 1.0), r.randint(-1080, 1024))

        for _ in range(100000):
            a, b = draw(), draw()
            c = -(a * b) if r.random() < 0.2 else draw()  # cancellation
            try:
                expected = _bits(math.fma(a, b, c))
            except OverflowError:
                expected = _bits(math.copysign(math.inf, exact_fma(a, b, c)))
            except ValueError:
                expected = _bits(math.nan)
            assert _bits(_fma(a, b, c)) == expected, (a, b, c)

    @given(x=st.complex_numbers(allow_nan=False, allow_infinity=False),
           y=st.complex_numbers(allow_nan=False, allow_infinity=False))
    @settings(max_examples=1000, deadline=None)
    def test_cmul_rounds_each_part_once(self, x, y):
        result, reference = _cmul(x, y), exact_cmul(x, y)
        assert (_bits(result.real), _bits(result.imag)) == (
            _bits(reference.real), _bits(reference.imag))

    @needs_fused_numpy
    def test_cmul_keeps_the_bits_of_np_multiply(self, rng):
        scale = 10.0 ** rng.integers(-300, 300, size=(4, 4000))
        x = (rng.uniform(-1, 1, size=4000) * scale[0]
             + 1j * rng.uniform(-1, 1, size=4000) * scale[1])
        y = (rng.uniform(-1, 1, size=4000) * scale[2]
             + 1j * rng.uniform(-1, 1, size=4000) * scale[3])
        x[:8], y[:8] = [0.0, -0.0, 1.0, -1.0] * 2, [-0.0, 0.0, 0.0, -0.0, 1j, -1j, 1, -1]
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            product = np.multiply(x, y).tolist()
        for a, b, c in zip(x.tolist(), y.tolist(), product):
            result = _cmul(a, b)
            assert (_bits(result.real), _bits(result.imag)) == (
                _bits(c.real), _bits(c.imag))


SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "coinqubit"


def _table_block(tree: ast.Module) -> tuple[int, int]:
    """First and last line of the run of *_TOL assignments in a module."""
    body = tree.body
    marks = [
        i for i, node in enumerate(body)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id.endswith("_TOL")
                for t in node.targets)
    ]
    if not marks:
        return 0, -1
    assert marks == list(range(marks[0], marks[-1] + 1)), "table is split"
    return body[marks[0]].lineno, body[marks[-1]].end_lineno


def test_tolerances_live_in_one_table():
    """Every tolerance is defined once, in one block of states.py."""
    names, strays = [], []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        first, last = _table_block(tree)
        if path.name == "states.py":
            names = [
                t.id for node in tree.body if first <= node.lineno <= last
                for t in node.targets
            ]
        else:
            assert last < first, f"{path.name} defines its own *_TOL names"
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) <= 1e-6
                and not first <= node.lineno <= last
            ):
                strays.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not strays, f"tolerance literals outside the table: {strays}"
    assert names and len(set(names)) == len(names) < 15
