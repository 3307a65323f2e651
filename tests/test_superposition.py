import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from coinqubit import (
    DegeneratePhaseStateError,
    DegenerateSuperpositionError,
    DomainError,
    NotOrthogonalError,
    NotPureError,
    ProbabilityTriple,
    SuperpositionResult,
    SuperpositionWeights,
    assemble_projector_sum,
    delta_decomposition,
    fidelity,
    orthogonal_partner,
    prob_to_density,
    prob_to_spinor,
    superpose_checked,
    superpose_general,
    superpose_oracle,
    superpose_orthogonal,
    superpose_spinor,
    unit_normalization_phase,
    weights_for_phase,
)
from coinqubit import states, superposition
from coinqubit.states import (
    ANNIHILATION_TOL,
    HANDOVER_TOL,
    ORTHO_TOL,
    PATH_AGREE_TOL,
    DensityMatrix2,
    density_to_prob,
)
from conftest import exact_cmul, exact_fma, needs_fused_numpy, random_pure

UP = ProbabilityTriple(0.5, 0.5, 1.0)
DOWN = ProbabilityTriple(0.5, 0.5, 0.0)
PLUS_TILT = weights_for_phase(1.0, 0.3).triple  # pure, off the poles
MINUS_TILT = weights_for_phase(2.5, 0.8).triple
EQUAL_WEIGHTS = SuperpositionWeights(ProbabilityTriple(1.0, 0.5, 0.5))
FIRST_ONLY = SuperpositionWeights(ProbabilityTriple(0.5, 0.5, 1.0))
PLUS_PARTNER = orthogonal_partner(PLUS_TILT)


def _max_diff(a, b):
    return abs(a.state.vec() - b.state.vec()).max()


def _pure(theta, phi):
    r = math.sin(theta) / 2.0
    return (
        0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi), 0.5 + math.cos(theta) / 2
    )


class TestNearPole:
    # The azimuth radius sqrt(p3 (1 - p3)) stays above POLE_TOL down to
    # p3 = 1e-20, so those states keep their phase; 1e-26 and 0 are poles.
    @pytest.mark.parametrize("p3", [1e-13, 1e-16, 1e-20, 1e-26, 0.0])
    def test_four_paths_agree(self, p3):
        r = math.sqrt(p3 * (1.0 - p3))
        p = ProbabilityTriple(0.5 + r * math.cos(1.0), 0.5 + r * math.sin(1.0), p3)
        q = orthogonal_partner(p)
        for w in (weights_for_phase(2.0, 0.3), weights_for_phase(2.0, 1e-13)):
            oracle = superpose_oracle(p, q, w)
            for path in (superpose_general, superpose_orthogonal, superpose_spinor):
                assert _max_diff(path(p, q, w), oracle) < 1e-9, path.__name__


class TestWeights:
    def test_requires_pure_triple(self):
        with pytest.raises(NotPureError):
            SuperpositionWeights(ProbabilityTriple(0.5, 0.5, 0.5))

    def test_coefficients(self):
        w = SuperpositionWeights(ProbabilityTriple(0.5, 1.0, 0.5))
        assert w.lambda1 == pytest.approx(0.5)
        assert w.alpha == pytest.approx(math.pi / 2.0)
        assert w.c1 == pytest.approx(math.sqrt(0.5))
        assert w.c2 == pytest.approx(1j * math.sqrt(0.5))

    def test_from_probabilities(self):
        w = SuperpositionWeights.from_probabilities(0.5, 1.0, 0.5)
        assert w == SuperpositionWeights(ProbabilityTriple(0.5, 1.0, 0.5))

    def test_from_probabilities_rejects_a_non_pure_triple(self):
        with pytest.raises(NotPureError) as direct:
            SuperpositionWeights(ProbabilityTriple(0.5, 0.5, 0.5))
        with pytest.raises(NotPureError) as built:
            SuperpositionWeights.from_probabilities(0.5, 0.5, 0.5)
        assert str(built.value) == str(direct.value)

    def test_pole_convention(self):
        assert FIRST_ONLY.alpha == 0.0
        assert FIRST_ONLY.c2 == 0.0

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_weights_for_phase_rejects_a_non_finite_phase(self, alpha):
        with pytest.raises(DomainError, match=f"alpha must be finite, got {alpha!r}"):
            weights_for_phase(alpha)

    @pytest.mark.parametrize("pi3", [1.5, -0.1, math.nan])
    def test_weights_for_phase_rejects_pi3_off_the_unit_interval(self, pi3):
        with pytest.raises(DomainError, match=f"^Pi3 must lie in \\[0, 1\\], got {pi3!r}$"):
            weights_for_phase(0.3, pi3)


def _spinor_ket(p):
    """The oracle's ket as it was built from prob_to_spinor."""
    s = prob_to_spinor(p)
    return complex(s.amplitude0), s.amplitude1 * cmath.exp(1j * s.phase)


def _bits(ket):
    return [x.hex() for z in ket for x in (z.real, z.imag)]


class TestKet:
    @pytest.mark.parametrize("p3", [0.0, 1.0, 1e-13, *(1.0 - 2.0 ** -k for k in
                                                       (1, 2, 26, 52, 53))])
    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi, 5.5])
    def test_matches_prob_to_spinor_at_the_edges(self, p3, phi):
        p = _on_circle(p3, phi)
        assert _bits(superposition._ket(p)) == _bits(_spinor_ket(p))

    @given(p3=st.floats(0.0, 1.0), phi=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=500, deadline=None)
    def test_matches_prob_to_spinor(self, p3, phi):
        p = _on_circle(p3, phi)
        assert _bits(superposition._ket(p)) == _bits(_spinor_ket(p))


class TestOracle:
    def test_equal_weight_fixture(self):
        result = superpose_oracle(UP, DOWN, EQUAL_WEIGHTS)
        assert abs(
            result.state.vec() - np.array([1.0, 0.5, 0.5])
        ).max() < 1e-12
        assert result.normalization == pytest.approx(1.0)

    def test_quarter_phase_fixture(self):
        w = SuperpositionWeights(ProbabilityTriple(0.5, 1.0, 0.5))
        result = superpose_oracle(UP, DOWN, w)
        assert abs(
            result.state.vec() - np.array([0.5, 1.0, 0.5])
        ).max() < 1e-12

    def test_identity_cases(self, rng):
        for _ in range(50):
            p, q = random_pure(rng), random_pure(rng)
            keep_first = superpose_oracle(p, q, FIRST_ONLY)
            assert _max_diff(keep_first, superpose_oracle(p, p, FIRST_ONLY)) < 1e-12
            assert abs(keep_first.state.vec() - p.vec()).max() < 1e-12
            keep_second = superpose_oracle(
                p, q, SuperpositionWeights(ProbabilityTriple(0.5, 0.5, 0.0))
            )
            assert abs(keep_second.state.vec() - q.vec()).max() < 1e-12

    def test_rejects_non_pure(self):
        with pytest.raises(NotPureError):
            superpose_oracle(ProbabilityTriple(0.5, 0.5, 0.5), DOWN, EQUAL_WEIGHTS)

    def test_destructive_interference_is_an_error(self):
        plus = ProbabilityTriple(1.0, 0.5, 0.5)
        # equal weights, phase pi: (|+> - |+>)/norm has no norm
        w = weights_for_phase(math.pi, pi3=0.5)
        with pytest.raises(DegenerateSuperpositionError):
            superpose_oracle(plus, plus, w)

    def test_output_is_pure(self, rng):
        for _ in range(200):
            result = superpose_oracle(
                random_pure(rng),
                random_pure(rng),
                SuperpositionWeights(random_pure(rng)),
            )
            assert abs(result.state.radius2 - 0.25) < 1e-9

    @needs_fused_numpy
    def test_bits_of_the_two_vector_outer_form(self, rng):
        """The oracle's state and normalization equal, bit for bit, the form
        that built each spinor with as_vector and rho with np.outer."""

        def reference(p, q, w):
            chi = (w.c1 * prob_to_spinor(p).as_vector()
                   + w.c2 * prob_to_spinor(q).as_vector())
            norm2 = float(np.vdot(chi, chi).real)
            m = np.outer(chi, chi.conj()) / norm2
            rho = DensityMatrix2(m[0, 0].real, m[0, 1], m[1, 1].real)
            return density_to_prob(rho), norm2

        cases = [(UP, DOWN, EQUAL_WEIGHTS), (DOWN, UP, FIRST_ONLY),
                 (UP, UP, EQUAL_WEIGHTS), (DOWN, DOWN, EQUAL_WEIGHTS)]
        for _ in range(1000):
            p = random_pure(rng)
            w = SuperpositionWeights(random_pure(rng))
            cases += [(p, random_pure(rng), w), (p, orthogonal_partner(p), w),
                      (p, _on_circle(10.0 ** rng.uniform(-12, -6), 1.0), w)]
        for p, q, w in cases:
            result = superpose_oracle(p, q, w)
            assert (result.state, result.normalization) == reference(p, q, w)


class TestGeneralClosedForm:
    def test_matches_oracle(self, rng):
        count = 0
        while count < 2000:
            p, q = random_pure(rng), random_pure(rng)
            w = SuperpositionWeights(random_pure(rng))
            try:
                general = superpose_general(p, q, w)
                oracle = superpose_oracle(p, q, w)
            except DegenerateSuperpositionError:
                continue
            if general.normalization < 1e-3:
                continue
            count += 1
            assert _max_diff(general, oracle) < 1e-10
            if not general.fallback_used:
                assert general.normalization == pytest.approx(
                    oracle.normalization, abs=1e-10
                )

    def test_identity_case(self, rng):
        p, q = random_pure(rng, z_margin=0.05), random_pure(rng, z_margin=0.05)
        result = superpose_general(p, q, FIRST_ONLY)
        assert not result.fallback_used
        assert abs(result.state.vec() - p.vec()).max() < 1e-12
        assert result.normalization == pytest.approx(1.0, abs=1e-12)

    def test_pole_fallback_flag(self):
        result = superpose_general(UP, DOWN, EQUAL_WEIGHTS)
        assert result.fallback_used
        assert abs(result.state.vec() - np.array([1.0, 0.5, 0.5])).max() < 1e-12
        off_pole = superpose_general(
            ProbabilityTriple(1.0, 0.5, 0.5),
            ProbabilityTriple(0.5, 1.0, 0.5),
            EQUAL_WEIGHTS,
        )
        assert not off_pole.fallback_used

    def test_unit_normalization_condition(self, rng):
        for _ in range(200):
            p = random_pure(rng, z_margin=0.02)
            q = random_pure(rng, z_margin=0.02)
            try:
                alpha = unit_normalization_phase(p, q)
            except DomainError:
                continue
            result = superpose_general(p, q, weights_for_phase(alpha))
            assert result.normalization == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p3", [1e-13, 1e-20, 1.0 - 1e-13])
    @pytest.mark.parametrize("swap", [False, True])
    def test_unit_normalization_next_to_a_pole(self, p3, swap):
        """A state off the pole keeps its phase (see coin_phase), so the
        phase condition is defined for it."""
        p, q = _on_circle(p3, 1.0), _on_circle(0.4, 2.5)
        if swap:
            p, q = q, p
        alpha = unit_normalization_phase(p, q)
        result = superpose_general(p, q, weights_for_phase(alpha))
        assert result.normalization == pytest.approx(1.0, abs=1e-10)

    # the last pole is pure within BALL_TOL, with p1 off 1/2 and p3 = 1
    @pytest.mark.parametrize("pole", [
        UP, DOWN, ProbabilityTriple(0.5 + 1e-5, 0.5, 1.0),
    ])
    def test_unit_normalization_at_a_pole_is_undefined(self, pole):
        other = _on_circle(0.4, 2.5)
        for p, q in ((pole, other), (other, pole)):
            with pytest.raises(DomainError, match="sits at a pole"):
                unit_normalization_phase(p, q)

    @pytest.mark.parametrize("shift", [0.0, math.pi, -math.pi])
    def test_unit_normalization_at_equal_phases_is_undefined(self, shift):
        p, q = _on_circle(0.4, 1.0), _on_circle(0.7, 1.0 + shift)
        with pytest.raises(DomainError, match="phases coincide modulo pi"):
            unit_normalization_phase(p, q)

    def test_normalization_positive(self, rng):
        for _ in range(200):
            try:
                result = superpose_general(
                    random_pure(rng),
                    random_pure(rng),
                    SuperpositionWeights(random_pure(rng)),
                )
            except DegenerateSuperpositionError:
                continue
            assert result.normalization > 0.0


class TestOrthogonalRule:
    def test_equal_weight_fixture(self):
        result = superpose_orthogonal(UP, DOWN, EQUAL_WEIGHTS)
        assert abs(result.state.vec() - np.array([1.0, 0.5, 0.5])).max() < 1e-12

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonalError):
            superpose_orthogonal(UP, ProbabilityTriple(1, 0.5, 0.5), EQUAL_WEIGHTS)

    def test_matches_oracle_random(self, rng):
        for _ in range(2000):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            w = SuperpositionWeights(random_pure(rng))
            assert (
                _max_diff(
                    superpose_orthogonal(p, q, w), superpose_oracle(p, q, w)
                )
                < 1e-9
            )

    def test_projector_identities(self, rng):
        for _ in range(300):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            w = SuperpositionWeights(random_pure(rng))
            matrix = assemble_projector_sum(p, q, w)
            assert abs(matrix - matrix.conj().T).max() < 1e-10
            assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-10)
            assert abs(matrix @ matrix - matrix).max() < 1e-10

    def test_the_default_rho0_given_explicitly(self, rng):
        # |psi0> = (|psi1> + e^{i*alpha}|psi2>)/sqrt(2) reproduces each default
        for _ in range(100):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            w = SuperpositionWeights(random_pure(rng, z_margin=0.01))
            psi0 = (np.array(_spinor_ket(p))
                    + cmath.exp(1j * w.alpha) * np.array(_spinor_ket(q))) / math.sqrt(2)
            rho0 = DensityMatrix2.from_array(np.outer(psi0, psi0.conj()))
            assert abs(assemble_projector_sum(p, q, w, rho0)
                       - assemble_projector_sum(p, q, w)).max() < 1e-12
            assert _max_diff(superpose_orthogonal(p, q, w, rho0),
                             superpose_orthogonal(p, q, w)) < 1e-12
            for given_rho0, default in zip(delta_decomposition(p, q, w, rho0),
                                           delta_decomposition(p, q, w)):
                assert np.max(abs(given_rho0 - default)) < 1e-9 * np.max(abs(default))

    def test_a_mixed_rho0_follows_the_docstring_formula(self, rng):
        rho0 = prob_to_density(ProbabilityTriple(0.6, 0.3, 0.7))
        r0 = rho0.as_array()
        for _ in range(100):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            w = SuperpositionWeights(random_pure(rng, z_margin=0.01))
            r1, r2 = prob_to_density(p).as_array(), prob_to_density(q).as_array()
            trace_factor = np.trace(r1 @ r0 @ r2 @ r0).real
            matrix = (w.lambda1 * r1 + w.lambda2 * r2 + math.sqrt(w.lambda1 * w.lambda2)
                      * (r1 @ r0 @ r2 + r2 @ r0 @ r1) / math.sqrt(trace_factor))
            matrix /= np.trace(matrix).real
            assert abs(assemble_projector_sum(p, q, w, rho0) - matrix).max() < 1e-12
            state = density_to_prob(DensityMatrix2.from_array(matrix))
            assert abs(superpose_orthogonal(p, q, w, rho0).state.vec()
                       - state.vec()).max() < 1e-12
            assert delta_decomposition(p, q, w, rho0)[2] == pytest.approx(
                trace_factor ** -0.5, rel=1e-12)

    @pytest.mark.parametrize("p, q", [
        # fidelity 2.5e-11, inside ORTHO_TOL but not exactly orthogonal
        ((0.8875230508458739, 0.6638421180023594, 0.7701511529340699),
         (0.11247943743039668, 0.33615893402397434, 0.22984463972451374)),
        # 1e-8 off the antipode; the fidelity rounds to 2e-16
        (_pure(1.0, 0.3), _pure(math.pi - 1.0 + 1e-8, 0.3 + math.pi)),
    ])
    def test_nearly_orthogonal_inputs(self, p, q):
        p, q = ProbabilityTriple(*p), ProbabilityTriple(*q)
        matrix = assemble_projector_sum(p, q, EQUAL_WEIGHTS)
        assert np.trace(matrix).real == pytest.approx(1.0, abs=1e-12)
        result = superpose_orthogonal(p, q, EQUAL_WEIGHTS)
        oracle = superpose_oracle(p, q, EQUAL_WEIGHTS)
        assert _max_diff(result, oracle) < 1e-9
        assert result.normalization == pytest.approx(
            oracle.normalization, abs=1e-12
        )

    def test_degenerate_phase_state(self):
        # rho0 = |0><0| supplied explicitly is orthogonal to rho2 = |1><1|
        rho0 = prob_to_density(ProbabilityTriple(0.5, 0.5, 1.0))
        with pytest.raises(DegeneratePhaseStateError):
            superpose_orthogonal(UP, DOWN, EQUAL_WEIGHTS, rho0=rho0)

    @pytest.mark.parametrize("path", [superpose_orthogonal, assemble_projector_sum,
                                      delta_decomposition])
    def test_a_rho0_too_large_for_the_trace_factor(self, path):
        """|<1|rho0|2>|^2 past the float range is a DomainError, not the
        OverflowError of its square; a unit-trace rho0 need not be a state."""
        rho0 = DensityMatrix2(0.5, 1e200 + 1e200j, 0.5)
        with pytest.raises(DomainError, match="^Tr\\(rho1 rho0 rho2 rho0\\) overflows"):
            path(UP, DOWN, EQUAL_WEIGHTS, rho0)


class TestDeltaDecomposition:
    def test_fixture(self):
        linear, delta, t_factor = delta_decomposition(UP, DOWN, EQUAL_WEIGHTS)
        assert abs(linear - np.array([0.5, 0.5, 0.5])).max() < 1e-12
        assert abs(delta - np.array([1.0, 0.0, 0.0])).max() < 1e-12
        assert t_factor == pytest.approx(2.0, abs=1e-12)

    def test_reconstruction(self, rng):
        for _ in range(300):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            w = SuperpositionWeights(random_pure(rng, z_margin=0.05))
            linear, delta, _ = delta_decomposition(p, q, w)
            rebuilt = linear + math.sqrt(w.lambda1 * w.lambda2) * delta
            expected = superpose_orthogonal(p, q, w).state.vec()
            assert abs(rebuilt - expected).max() < 1e-12

    def test_swap_symmetry(self, rng):
        # swapping the inputs with the conjugate-adjusted weight triple
        # (Pi1, 1-Pi2, 1-Pi3) describes the same superposition
        for _ in range(200):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            wt = random_pure(rng, z_margin=0.05)
            swapped = ProbabilityTriple(wt.p1, 1.0 - wt.p2, 1.0 - wt.p3)
            _, delta, _ = delta_decomposition(p, q, SuperpositionWeights(wt))
            _, delta_swapped, _ = delta_decomposition(
                q, p, SuperpositionWeights(swapped)
            )
            assert abs(delta - delta_swapped).max() < 1e-9

    def test_pure_weights_are_degenerate(self):
        with pytest.raises(DomainError):
            delta_decomposition(UP, DOWN, FIRST_ONLY)


class TestSpinorPath:
    def test_fixture(self):
        result = superpose_spinor(UP, DOWN, EQUAL_WEIGHTS)
        assert abs(result.state.vec() - np.array([1.0, 0.5, 0.5])).max() < 1e-12

    def test_identity_case(self, rng):
        p = random_pure(rng)
        result = superpose_spinor(p, orthogonal_partner(p), FIRST_ONLY)
        assert abs(result.state.vec() - p.vec()).max() < 1e-12

    def test_three_path_consistency(self, rng):
        for _ in range(2000):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            w = SuperpositionWeights(random_pure(rng))
            spinor = superpose_spinor(p, q, w)
            assert _max_diff(spinor, superpose_orthogonal(p, q, w)) < 1e-9
            assert _max_diff(spinor, superpose_oracle(p, q, w)) < 1e-9


    def test_orthogonal_inputs_never_annihilate(self, rng):
        """For inputs that pass the orthogonality check the column vector's
        squared norm is 1 + 2 Re(c1 c2 <psi1|psi2>) >= 1 - sqrt(ORTHO_TOL),
        so it never reaches ANNIHILATION_TOL.  q lies at overlap just under
        ORTHO_TOL from p, and the weight phase turns c2 <psi1|psi2> against
        c1, which nearly attains the bound."""
        overlap = 0.99 * ORTHO_TOL
        norms = []
        for p in [UP, DOWN, *(random_pure(rng) for _ in range(300))]:
            u = prob_to_spinor(p).as_vector()
            v = (math.sqrt(overlap) * u + math.sqrt(1.0 - overlap)
                 * np.array([u[1].conjugate(), -u[0].conjugate()]))
            q = ProbabilityTriple(0.5 + (v[0] * v[1].conjugate()).real,
                                  0.5 - (v[0] * v[1].conjugate()).imag,
                                  abs(v[0]) ** 2)
            assert fidelity(p, q) < ORTHO_TOL
            w_phase = math.pi - np.angle(np.vdot(u, prob_to_spinor(q).as_vector()))
            norms.append(
                superpose_spinor(p, q, weights_for_phase(w_phase)).normalization
            )
        assert 1.0 - math.sqrt(ORTHO_TOL) < min(norms) < 1.0 - 0.99 * math.sqrt(overlap)


def _old_rule(p, q, w):
    """superpose's result and path agreement as the CLI computed them
    before superpose_checked."""
    w = SuperpositionWeights(w)
    general = superpose_general(p, q, w)
    oracle = superpose_oracle(p, q, w)
    paths = [general, oracle]
    try:
        paths += [superpose_orthogonal(p, q, w), superpose_spinor(p, q, w)]
    except NotOrthogonalError:
        pass
    return general, all(_max_diff(r, oracle) < PATH_AGREE_TOL for r in paths)


def _outcome(rule, p, q, w):
    try:
        return rule(p, q, w)
    except Exception as exc:
        return type(exc), str(exc)


def _checked_cases(rng):
    near_pole = ProbabilityTriple(
        0.5 + 3e-7 * math.cos(1.0), 0.5 + 3e-7 * math.sin(1.0), 1e-13
    )
    plus = ProbabilityTriple(1.0, 0.5, 0.5)
    cases = [
        (UP, DOWN, EQUAL_WEIGHTS.triple),
        (DOWN, UP, FIRST_ONLY.triple),
        (near_pole, orthogonal_partner(near_pole),
         weights_for_phase(2.0, 0.3).triple),
        (plus, plus, weights_for_phase(math.pi).triple),  # annihilates
        (UP, DOWN, ProbabilityTriple(0.0, 0.5, 0.5)),
        (ProbabilityTriple(0.5, 0.5, 0.5), DOWN, EQUAL_WEIGHTS.triple),  # not pure
        (UP, DOWN, ProbabilityTriple(0.5, 0.5, 0.5)),  # weights not pure
        # p3 a few 1e-12 and normalization 0.015: the closed form would lie
        # 1.4e-9 from the oracle, so the general rule hands over to it
        (ProbabilityTriple(0.5000013900918417, 0.4999987231106461,
                           3.5628017508472857e-12),
         ProbabilityTriple(0.39269277885260706, 0.38864307393773917,
                           0.0245162512686804),
         ProbabilityTriple(0.5497439217097553, 0.0025055548310435327,
                           0.4950181048820833)),
    ]
    for _ in range(200):
        p = random_pure(rng)
        cases.append((p, random_pure(rng), random_pure(rng)))
        cases.append((p, orthogonal_partner(p), random_pure(rng)))
        cases.append((p, p, random_pure(rng)))
    return cases


class TestSuperposeChecked:
    def test_equals_the_general_path_and_the_old_agreement_rule(self, rng):
        verdicts = set()
        for p, q, w in _checked_cases(rng):
            outcome = _outcome(superpose_checked, p, q, w)
            assert outcome == _outcome(_old_rule, p, q, w), (p, q, w)
            verdicts.add(outcome[1] if isinstance(outcome[0], SuperpositionResult)
                         else outcome[0])
        assert verdicts >= {True, DegenerateSuperpositionError, NotPureError}

    def test_the_orthogonal_paths_count_only_for_orthogonal_inputs(self, monkeypatch):
        off = SuperpositionResult(ProbabilityTriple(0.5, 0.5, 0.5), 1.0, "spinor")
        monkeypatch.setattr(superposition, "_spinor", lambda p, q, w: off)
        plus = ProbabilityTriple(1.0, 0.5, 0.5)
        assert superpose_checked(UP, DOWN, EQUAL_WEIGHTS)[1] is False
        assert superpose_checked(UP, plus, EQUAL_WEIGHTS)[1] is True

    @pytest.mark.parametrize("q", [UP, ProbabilityTriple(1.0, 0.5, 0.5)])
    def test_one_oracle_call_at_a_pole(self, monkeypatch, q):
        """The general rule's hand-over result is the reference."""
        calls = []
        oracle = superposition._oracle
        monkeypatch.setattr(superposition, "_oracle",
                            lambda *args: calls.append(args) or oracle(*args))
        general, agree = superpose_checked(DOWN, q, EQUAL_WEIGHTS)
        assert general.fallback_used and agree
        assert len(calls) == 1

    @pytest.mark.parametrize("call, args, overlaps", [
        (superpose_oracle, (PLUS_TILT, MINUS_TILT, EQUAL_WEIGHTS), 0),
        (superpose_orthogonal, (PLUS_TILT, PLUS_PARTNER, EQUAL_WEIGHTS), 1),
        (superpose_general, (DOWN, PLUS_TILT, EQUAL_WEIGHTS), 0),
        (superpose_spinor, (PLUS_TILT, PLUS_PARTNER, EQUAL_WEIGHTS), 1),
        (assemble_projector_sum, (PLUS_TILT, PLUS_PARTNER, EQUAL_WEIGHTS), 1),
        (delta_decomposition, (PLUS_TILT, PLUS_PARTNER, EQUAL_WEIGHTS), 1),
        (unit_normalization_phase, (PLUS_TILT, MINUS_TILT), 0),
        (superpose_checked, (PLUS_TILT, MINUS_TILT, EQUAL_WEIGHTS), 1),
        (superpose_checked, (PLUS_TILT, PLUS_PARTNER, EQUAL_WEIGHTS), 1),
        (superpose_checked, (DOWN, UP, EQUAL_WEIGHTS), 1),
    ], ids=["oracle", "orthogonal", "general-at-a-pole", "spinor",
            "projector-sum", "delta", "unit-normalization-phase", "checked",
            "checked-orthogonal", "checked-orthogonal-at-a-pole"])
    def test_each_input_is_checked_pure_once_per_entry_point(
        self, monkeypatch, call, args, overlaps
    ):
        """Every public entry point checks p and q pure once, and computes
        their overlap once where it tests orthogonality: the checked rule
        for every pair, since its orthogonality verdict picks the paths."""
        counted = {"_require_pure": [], "_overlap": []}
        for name, calls in counted.items():
            real = getattr(states, name)

            def spy(*a, calls=calls, real=real):
                calls.append(a)
                return real(*a)

            for module in (states, superposition):
                monkeypatch.setattr(module, name, spy)
        call(*args)
        assert (len(counted["_require_pure"]), len(counted["_overlap"])) == (
            2, overlaps)


MIXED = ProbabilityTriple(0.5, 0.5, 0.5)
PLUS = ProbabilityTriple(1.0, 0.5, 0.5)  # overlap 1/2 with UP
MIXED_WEIGHTS = ProbabilityTriple(0.5, 0.5, 0.25)
NOT_PURE = "{} ({}, {}, {}) is not pure: radius^2 = {}, expected 1/4"


class TestErrorPrecedence:
    """Inputs with more than one fault: the error raised is that of the
    first check in the order weights, first state, second state, then
    orthogonality, then the path's own degenerate cases."""

    @pytest.mark.parametrize("call, args, error, message", [
        (superpose_oracle, (MIXED, UP, MIXED_WEIGHTS), NotPureError,
         NOT_PURE.format("weight triple", 0.5, 0.5, 0.25, 0.0625)),
        (superpose_general, (MIXED, UP, MIXED_WEIGHTS), NotPureError,
         NOT_PURE.format("weight triple", 0.5, 0.5, 0.25, 0.0625)),
        (superpose_checked, (MIXED, UP, MIXED_WEIGHTS), NotPureError,
         NOT_PURE.format("weight triple", 0.5, 0.5, 0.25, 0.0625)),
        (superpose_orthogonal, (MIXED, PLUS, MIXED_WEIGHTS), NotPureError,
         NOT_PURE.format("weight triple", 0.5, 0.5, 0.25, 0.0625)),
        (superpose_oracle, (MIXED, MIXED_WEIGHTS, PLUS), NotPureError,
         NOT_PURE.format("first state", 0.5, 0.5, 0.5, 0.0)),
        (superpose_checked, (MIXED, MIXED_WEIGHTS, PLUS), NotPureError,
         NOT_PURE.format("first state", 0.5, 0.5, 0.5, 0.0)),
        (superpose_orthogonal, (UP, MIXED, PLUS), NotPureError,
         NOT_PURE.format("second state", 0.5, 0.5, 0.5, 0.0)),
        (superpose_spinor, (UP, MIXED, PLUS), NotPureError,
         NOT_PURE.format("second state", 0.5, 0.5, 0.5, 0.0)),
        (assemble_projector_sum, (UP, MIXED, PLUS), NotPureError,
         NOT_PURE.format("second state", 0.5, 0.5, 0.5, 0.0)),
        (superpose_checked, (UP, MIXED, PLUS), NotPureError,
         NOT_PURE.format("second state", 0.5, 0.5, 0.5, 0.0)),
        (delta_decomposition, (MIXED, PLUS, FIRST_ONLY.triple), DomainError,
         "delta is undefined for pure weights (lambda1 * lambda2 = 0)"),
        (delta_decomposition, (UP, MIXED, PLUS), NotPureError,
         NOT_PURE.format("second state", 0.5, 0.5, 0.5, 0.0)),
        (unit_normalization_phase, (UP, MIXED), NotPureError,
         NOT_PURE.format("second state", 0.5, 0.5, 0.5, 0.0)),
        # a non-orthogonal pair with a rho0 orthogonal to UP
        (superpose_orthogonal, (UP, PLUS, PLUS, prob_to_density(DOWN)),
         NotOrthogonalError, "input states must be orthogonal (<psi1|psi2> = 0); "
         "their overlap Tr(rho1 rho2) is 0.5"),
        (delta_decomposition, (UP, PLUS, PLUS, prob_to_density(DOWN)),
         NotOrthogonalError, "input states must be orthogonal (<psi1|psi2> = 0); "
         "their overlap Tr(rho1 rho2) is 0.5"),
    ], ids=["oracle-weights", "general-weights", "checked-weights",
            "orthogonal-weights", "oracle-first", "checked-first",
            "orthogonal-second", "spinor-second",
            "projector-sum-second", "checked-second", "delta-interference",
            "delta-second", "unit-normalization-phase-second",
            "orthogonal-before-rho0", "delta-orthogonal-before-rho0"])
    def test_first_fault_wins(self, call, args, error, message):
        with pytest.raises(error) as raised:
            call(*args)
        assert (type(raised.value), str(raised.value)) == (error, message)


def _on_circle(p3, phi):
    r = math.sqrt(p3 * (1.0 - p3))
    return ProbabilityTriple(0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi), p3)


ZERO_NORM = ("the superposed vector has zero norm (exact destructive "
             "interference); no qubit state exists")


def _numpy_oracle(p, q, w):
    """The oracle as numpy computed it, before it ran on plain floats."""
    kets = np.array([superposition._ket(p), superposition._ket(q)])
    chi = w.c1 * kets[0] + w.c2 * kets[1]
    norm2 = float(np.vdot(chi, chi).real)
    if norm2 <= ANNIHILATION_TOL:
        raise DegenerateSuperpositionError(ZERO_NORM)
    rho = DensityMatrix2.from_array(np.multiply.outer(chi, chi.conj()) / norm2)
    return SuperpositionResult(
        state=density_to_prob(rho), normalization=norm2, path="matrix_oracle")


def _exact_oracle(p, q, w):
    """The oracle's fused formulas, each rounded once from exact rationals;
    numpy divides by the real norm (no multiply-add is fused there)."""
    c1 = complex(w.c1, 0.0)
    (a0, a1), (b0, b1) = superposition._ket(p), superposition._ket(q)
    x0, x1 = c1 * a0 + exact_cmul(w.c2, b0), c1 * a1 + exact_cmul(w.c2, b1)
    norm2 = (exact_fma(x1.real, x1.real, x0.real * x0.real)
             + exact_fma(x1.imag, x1.imag, x0.imag * x0.imag))
    if norm2 <= ANNIHILATION_TOL:
        raise DegenerateSuperpositionError(ZERO_NORM)
    m = [[exact_cmul(x, y.conjugate()) for y in (x0, x1)] for x in (x0, x1)]
    rho = DensityMatrix2.from_array(np.array(m) / norm2)
    return SuperpositionResult(
        state=density_to_prob(rho), normalization=norm2, path="matrix_oracle")


def _bits_of(f, p, q, w):
    """repr of the outcome: it shows the sign of a zero, as == does not."""
    return repr(_outcome(f, p, q, w))


EDGE_P3 = [0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53]
edge_or_any_p3 = st.one_of(st.sampled_from(EDGE_P3), st.floats(0.0, 1.0))
phases = st.floats(0.0, 2.0 * math.pi)


@st.composite
def oracle_inputs(draw):
    """(p, q, w): a random, orthogonal or annihilating pure pair, p3 and the
    weight Pi3 often at an edge (0, 1, the least subnormal, 1e-300, 1 - 2**-53)."""
    p = _on_circle(draw(edge_or_any_p3), draw(phases))
    kind = draw(st.sampled_from(["random", "orthogonal", "annihilating"]))
    if kind == "annihilating":  # c1|p> + c2|p> with c2 = -c1
        return p, p, weights_for_phase(math.pi, 0.5)
    q = orthogonal_partner(p) if kind == "orthogonal" else _on_circle(
        draw(edge_or_any_p3), draw(phases))
    return p, q, SuperpositionWeights(_on_circle(draw(edge_or_any_p3), draw(phases)))


def _edge_cases():
    """Every edge p3 against every other, the weights at edges too, and the
    annihilating pairs."""
    cases = []
    for i, p3 in enumerate(EDGE_P3):
        p = _on_circle(p3, 1.0 + i)
        cases.append((p, p, weights_for_phase(math.pi, 0.5)))
        cases.append((p, orthogonal_partner(p), EQUAL_WEIGHTS))
        for q3 in EDGE_P3:
            for pi3 in EDGE_P3 + [0.5]:
                cases.append((p, _on_circle(q3, 4.0), weights_for_phase(2.0, pi3)))
    return cases


class TestOracleKeepsTheNumpyBits:
    """The plain-float oracle against the numpy form it replaced (where
    numpy rounds fused here) and against exact rounding (everywhere)."""

    @needs_fused_numpy
    @given(inputs=oracle_inputs())
    @settings(max_examples=600, deadline=None)
    def test_numpy_form(self, inputs):
        assert (_bits_of(superposition._oracle, *inputs)
                == _bits_of(_numpy_oracle, *inputs))

    @given(inputs=oracle_inputs())
    @settings(max_examples=600, deadline=None)
    def test_exact_reference(self, inputs):
        assert (_bits_of(superposition._oracle, *inputs)
                == _bits_of(_exact_oracle, *inputs))

    @pytest.mark.parametrize("reference", [
        pytest.param(_numpy_oracle, marks=needs_fused_numpy, id="numpy"),
        pytest.param(_exact_oracle, id="exact"),
    ])
    def test_edges_and_annihilation(self, reference):
        cases = _edge_cases()
        outcomes = [_outcome(superposition._oracle, *case) for case in cases]
        assert [repr(o) for o in outcomes] == [_bits_of(reference, *c) for c in cases]
        assert sum(isinstance(o, tuple) for o in outcomes) >= len(EDGE_P3)


def _weights_for_normalization(p, q, pi3, target):
    """Weight triple of weight pi3 whose phase brings the normalization
    1 + 2 sqrt(pi3 (1-pi3)) |<p|q>| cos(alpha + arg<p|q>) closest to target."""
    overlap = np.vdot(prob_to_spinor(p).as_vector(), prob_to_spinor(q).as_vector())
    reach = 2.0 * math.sqrt(pi3 * (1.0 - pi3)) * abs(overlap)
    cos = 1.0 if reach == 0.0 else min(1.0, max(-1.0, (target - 1.0) / reach))
    return weights_for_phase(math.acos(cos) - np.angle(overlap), pi3)


def _or_annihilated(rule, p, q, w):
    """rule(p, q, w), or None where it raises DegenerateSuperpositionError."""
    try:
        return rule(p, q, w)
    except DegenerateSuperpositionError:
        return None


def _handover_sides(p):
    """Adjacent floats lo < hi of the weight phase in [pi - 1, pi] with the
    general rule superposing p with itself at equal weights by its closed
    form at lo and by the oracle at hi, found by bisection."""
    lo, hi = math.pi - 1.0, math.pi
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        general = _or_annihilated(superpose_general, p, p, weights_for_phase(mid, 0.5))
        if general is None or general.fallback_used:
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestHandover:
    @given(ulps=st.integers(-4, 4), phi=st.floats(0.0, 2.0 * math.pi),
           q3=st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e),
           phi_q=st.floats(0.0, 2.0 * math.pi), pi3=st.floats(0.01, 0.99),
           target=st.floats(-12.0, 0.3).map(lambda e: 10.0 ** e),
           swap=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_steps_across_the_tolerance(self, ulps, phi, q3, phi_q, pi3, target,
                                        swap):
        """p3 = HANDOVER_TOL moved by `ulps` steps of nextafter: the fallback
        fires at and below the tolerance, and above it from normalization
        1e-2 on it does not (q3 from 1e-5 keeps q off the hand-over).  At
        every normalization the general path annihilates where the oracle
        does and lies within PATH_AGREE_TOL of it elsewhere."""
        p3 = HANDOVER_TOL
        for _ in range(abs(ulps)):
            p3 = math.nextafter(p3, math.copysign(math.inf, ulps))
        p, q = _on_circle(p3, phi), _on_circle(q3, phi_q)
        if swap:
            p, q = q, p
        w = _weights_for_normalization(p, q, pi3, target)
        general = _or_annihilated(superpose_general, p, q, w)
        oracle = _or_annihilated(superpose_oracle, p, q, w)
        assert (general is None) == (oracle is None)
        if oracle is None:
            return
        if ulps <= 0 or target >= 1e-2:
            assert general.fallback_used == (ulps <= 0)
        assert _max_diff(general, oracle) < PATH_AGREE_TOL

    @given(p3=st.floats(-6.0, -1e-8, exclude_min=True)
           .map(lambda e: 10.0 ** e).filter(lambda p3: p3 > HANDOVER_TOL),
           phi=st.floats(0.1, math.pi / 2.0 - 0.1),
           quadrant=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_steps_across_the_normalization_bound(self, p3, phi, quadrant):
        """p superposed with itself at equal weights is p at every weight
        phase alpha, at normalization N = 1 + cos(alpha).  On the two
        adjacent phases either side of the hand-over the closed form runs
        with N sqrt(p3) just above HANDOVER_TOL and the oracle's result is
        taken just below it, both within PATH_AGREE_TOL of the oracle.  p3
        below 1 - 2e-8 and phi off the axes keep p's coins far enough from 0
        and 1 that the closed form's rounding cannot take one out of [0, 1]."""
        p = _on_circle(p3, phi + quadrant * math.pi / 2.0)
        lo, hi = _handover_sides(p)
        closed = superpose_general(p, p, weights_for_phase(lo, 0.5))
        handed = superpose_general(p, p, weights_for_phase(hi, 0.5))
        oracle = superpose_oracle(p, p, weights_for_phase(hi, 0.5))
        assert not closed.fallback_used and handed.fallback_used
        assert closed.normalization * math.sqrt(p3) > HANDOVER_TOL
        assert (handed.state, handed.normalization) == (oracle.state,
                                                        oracle.normalization)
        for result in (closed, handed):
            assert math.isclose(result.normalization * math.sqrt(p3),
                                HANDOVER_TOL, rel_tol=1e-6)
            assert _max_diff(result, oracle) < PATH_AGREE_TOL

    @pytest.mark.parametrize("p", [ProbabilityTriple(1.0, 0.5, 0.5),
                                   ProbabilityTriple(0.5, 0.0, 0.5)])
    def test_a_coin_rounded_out_of_range_hands_over(self, p):
        """An axis state superposed with itself at normalization 2.7e-5:
        N sqrt(p3) = 1.9e-5 lets the closed form run, but its rounding puts
        the coin at 1 (or 0) past it by more than SPILL_TOL, so the oracle
        takes over instead of a DomainError."""
        w = weights_for_phase(math.pi - 0.007413102413009177, 0.5)
        general = superpose_general(p, p, w)
        oracle = superpose_oracle(p, p, w)
        assert general.normalization * math.sqrt(p.p3) > HANDOVER_TOL
        assert general.fallback_used
        assert (general.state, general.normalization) == (oracle.state,
                                                          oracle.normalization)
        assert abs(general.state.vec() - p.vec()).max() < 1e-15


def _orthogonality_sides(p, tilt):
    """Adjacent floats lo < hi with fidelity(p, tilt(lo)) < ORTHO_TOL <=
    fidelity(p, tilt(hi)), found by bisection from tilt(0), the antipode."""
    lo, hi = 0.0, 1e-3
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        if fidelity(p, tilt(mid)) < ORTHO_TOL:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestOrthoTol:
    @given(theta=st.floats(0.1, math.pi - 0.1), phi=st.floats(0.0, 2.0 * math.pi),
           along_phi=st.booleans(), sign=st.sampled_from([-1.0, 1.0]),
           pi3=st.floats(0.01, 0.99), alpha=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=400, deadline=None)
    def test_one_verdict_on_each_side(self, theta, phi, along_phi, sign, pi3,
                                      alpha):
        """q is tilted off the antipode of p by an angle bisected down to the
        two adjacent floats either side of fidelity = ORTHO_TOL: on each side
        the four orthogonal-input functions all raise NotOrthogonalError or
        all succeed, and superpose_checked runs the orthogonal paths exactly
        when they succeed."""
        p = ProbabilityTriple(*_pure(theta, phi))

        def tilt(angle):
            if along_phi:
                return ProbabilityTriple(*_pure(math.pi - theta,
                                                phi + math.pi + sign * angle))
            return ProbabilityTriple(*_pure(math.pi - theta + sign * angle,
                                            phi + math.pi))

        w = weights_for_phase(alpha, pi3)
        paths = (superpose_orthogonal, superpose_spinor, assemble_projector_sum,
                 delta_decomposition)
        off = SuperpositionResult(ProbabilityTriple(0.5, 0.5, 0.5), 1.0, "spinor")
        for angle, orthogonal in zip(_orthogonality_sides(p, tilt), (True, False)):
            q = tilt(angle)
            raised = []
            for path in paths:
                try:
                    path(p, q, w)
                except NotOrthogonalError:
                    raised.append(path)
            assert raised == ([] if orthogonal else list(paths))
            ran = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(superposition, "_spinor",
                              lambda p, q, w: ran.append(1) or off)
                agree = superpose_checked(p, q, w)[1]
            assert (bool(ran), agree) == (orthogonal, not orthogonal)


class TestAnnihilationTol:
    """q = p with Pi3 = 1/2: the superposed vector (c1 + c2)|p> has squared
    norm 1 + cos(alpha), which vanishes as the weight phase alpha -> pi.

    Only the oracle decides annihilation: the general rule hands over to it
    long before its own normalization gets near ANNIHILATION_TOL, so the
    two give one verdict on every input.  The oracle's vdot errs relative
    to the norm, about 1e-22 here, so its verdict is the exact one except
    within a relative 1e-9 of the tolerance."""

    @given(p3=st.floats(-6.0, 0.0, exclude_min=True, exclude_max=True)
           .map(lambda e: 10.0 ** e)
           .filter(lambda p3: HANDOVER_TOL < p3 < 1.0),
           phi=st.floats(0.0, 2.0 * math.pi),
           step=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)
                          .map(lambda e: 10.0 ** e)))
    @settings(max_examples=4000, deadline=None)
    def test_one_verdict(self, p3, phi, step):
        """alpha = pi - step * sqrt(2 ANNIHILATION_TOL), so 1 + cos(alpha)
        meets the tolerance near step = 1 and is zero at step = 0."""
        p = _on_circle(p3, phi)
        w = weights_for_phase(
            math.pi - step * math.sqrt(2.0 * ANNIHILATION_TOL), 0.5)
        oracle = _or_annihilated(superpose_oracle, p, p, w) is None
        assert (_or_annihilated(superpose_general, p, p, w) is None) == oracle
        norm2 = 2.0 * math.cos(w.alpha / 2.0) ** 2
        if step == 0.0:
            assert oracle
        if abs(norm2 - ANNIHILATION_TOL) > 1e-9 * ANNIHILATION_TOL:
            assert oracle == (norm2 <= ANNIHILATION_TOL)


class TestOrthogonalPartner:
    def test_antipodal_fixture(self):
        assert orthogonal_partner(UP) == DOWN

    def test_equatorial_fixture(self):
        partner = orthogonal_partner(ProbabilityTriple(1.0, 0.5, 0.5))
        assert partner == ProbabilityTriple(0.0, 0.5, 0.5)
        assert fidelity(ProbabilityTriple(1.0, 0.5, 0.5), partner) < 1e-12

    def test_partner_is_orthogonal_and_pure(self, rng):
        for _ in range(300):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            assert q.is_pure
            assert fidelity(p, q) < 1e-12

    def test_sign_branches_coincide(self, rng):
        # the orthogonal complement of a qubit pure state is unique, so
        # both phase branches name the same triple
        p = random_pure(rng)
        assert orthogonal_partner(p, "+") == orthogonal_partner(p, "-")

    def test_rejects_bad_sign(self):
        with pytest.raises(DomainError):
            orthogonal_partner(UP, "x")


class TestInterferenceFringe:
    def test_circle(self):
        for k in range(64):
            alpha = 2.0 * math.pi * k / 64.0
            result = superpose_oracle(UP, DOWN, weights_for_phase(alpha))
            assert result.state.p1 == pytest.approx(
                0.5 + 0.5 * math.cos(alpha), abs=1e-10
            )
            assert result.state.p2 == pytest.approx(
                0.5 + 0.5 * math.sin(alpha), abs=1e-10
            )


class TestPrintedDeltaFormulas:
    """Characterization of the printed closed forms for T and the
    interference vector.

    The published expressions transcribed literally disagree with their
    defining matrix quantities: the expression inside T's braces is not
    even real in general, and the vector components differ from the
    matrix-derived interference vector at order one.  The library
    therefore computes both from the defining matrix products; this test
    freezes the observed defect so a future "fix" cannot silently
    reintroduce the transcription.
    """

    @staticmethod
    def _off(t):
        return (t.p1 - 0.5) - 1j * (t.p2 - 0.5)

    def _literal_trace_braces(self, pt, qt, wt):
        p, q, w = self._off(pt), self._off(qt), self._off(wt)
        p3, q3, w3 = pt.p3, qt.p3, wt.p3
        return (
            ((p3 * w3 + p * w.conjugate()) * q3
             + (p3 * w + p * (1 - w3)) * q.conjugate()) * w3
            + ((p.conjugate() * w3 + (1 - p3) * w.conjugate()) * q
               + (p.conjugate() * w + (1 - p3) * (1 - w3))) * (1 - w3)
            + ((p.conjugate() * w3 + (1 - p3) * w.conjugate()) * q3
               + (p.conjugate() * w + (1 - p3) * (1 - w3)) * q.conjugate())
            * w.conjugate()
            + ((p3 * w3 + p * w.conjugate()) * q
               + (p3 * w + p * (1 - w3)) * (1 - q3)) * w
        )

    def test_literal_transcription_disagrees_with_matrix_trace(self, rng):
        worst = 0.0
        for _ in range(200):
            p = random_pure(rng)
            q = orthogonal_partner(p)
            wt = random_pure(rng, z_margin=0.05)
            # the density matrix of a pure triple is its projector
            m1, m2, m0 = (prob_to_density(t).as_array() for t in (p, q, wt))
            true_trace = float(np.trace(m1 @ m0 @ m2 @ m0).real)
            literal = self._literal_trace_braces(p, q, wt)
            worst = max(worst, abs(literal - true_trace))
        # observed defect is order one, far beyond floating error
        assert worst > 1e-2
