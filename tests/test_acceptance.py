"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Everything here is oracle- or property-based; tolerances are fixed
below, next to the criterion they belong to.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from coinqubit import (
    CoinObservable,
    DegeneratePhaseStateError,
    DegenerateSuperpositionError,
    ProbabilityTriple,
    SuperpositionWeights,
    assemble_projector_sum,
    classical_means,
    density_to_prob,
    fidelity,
    orthogonal_partner,
    prob_to_density,
    prob_to_spinor,
    purity,
    quantum_mean,
    run_experiment,
    spinor_to_prob,
    superpose_general,
    superpose_oracle,
    superpose_orthogonal,
    superpose_spinor,
    triada_sides,
    weights_for_phase,
)
from conftest import random_pure, random_quantum, random_valid


def _report(criterion: str) -> None:
    print(f"PASS {criterion}")


def _random_superposition_fixture(rng):
    """Pure (p, q, w) with the weight triple kept off the degenerate rim."""
    return (
        random_pure(rng),
        random_pure(rng),
        SuperpositionWeights(random_pure(rng)),
    )


def test_criterion_1_bijection_suite(rng):
    for _ in range(10**5):
        p = random_valid(rng)
        assert density_to_prob(prob_to_density(p)) == p
    for _ in range(10**4):
        p = random_pure(rng, z_margin=0.01)
        back = spinor_to_prob(prob_to_spinor(p))
        assert abs(back.vec() - p.vec()).max() < 1e-10
    _report(
        "criterion 1: 1e5 prob<->density round trips exact; "
        "1e4 prob<->spinor round trips within 1e-10"
    )


def test_criterion_2_and_3_oracle_equivalence_and_purity(rng):
    checked = 0
    while checked < 10**4:
        p, q, w = _random_superposition_fixture(rng)
        try:
            oracle = superpose_oracle(p, q, w)
            general = superpose_general(p, q, w)
        except DegenerateSuperpositionError:
            continue
        if oracle.normalization < 1e-3:
            # near-exact destructive interference: both paths divide by a
            # vanishing norm and the comparison is ill conditioned
            continue
        checked += 1
        assert abs(general.state.vec() - oracle.state.vec()).max() < 1e-9
        assert abs(general.state.radius2 - 0.25) < 1e-9  # criterion 3
        assert abs(oracle.state.radius2 - 0.25) < 1e-9
    for _ in range(2000):
        p = random_pure(rng)
        q = orthogonal_partner(p)
        w = SuperpositionWeights(random_pure(rng))
        oracle = superpose_oracle(p, q, w).state.vec()
        assert abs(superpose_orthogonal(p, q, w).state.vec() - oracle).max() < 1e-9
        assert abs(superpose_spinor(p, q, w).state.vec() - oracle).max() < 1e-9
    _report(
        "criterion 2: 1e4 general-vs-oracle fixtures within 1e-9; "
        "orthogonal and spinor paths consistent on orthogonal fixtures"
    )
    _report("criterion 3: every superposition output pure within 1e-9")


def test_criterion_4_closed_form_scalars(rng):
    for _ in range(10**4):
        p, q = random_quantum(rng), random_quantum(rng)
        rho_p = prob_to_density(p).as_array()
        rho_q = prob_to_density(q).as_array()
        assert abs(purity(p) - float(np.trace(rho_p @ rho_p).real)) < 1e-12
        assert abs(
            fidelity(p, q) - float(np.trace(rho_p @ rho_q).real)
        ) < 1e-12
    _report(
        "criterion 4: fidelity = Tr(rho1 rho2) and purity = Tr rho^2 "
        "within 1e-12 on 1e4 triples"
    )


def test_criterion_5_mean_value_identity(rng):
    for _ in range(10**4):
        p = random_quantum(rng)
        obs = CoinObservable(*rng.uniform(-2, 2, size=4))
        trace = float(
            np.trace(prob_to_density(p).as_array() @ obs.matrix()).real
        )
        assert abs(trace - sum(classical_means(obs, p))) < 1e-10
    fixture_obs = CoinObservable(1, 2, 3, -1)
    fixture_state = ProbabilityTriple(0.6, 0.7, 0.8)
    assert quantum_mean(fixture_obs, fixture_state) == pytest.approx(
        3.2, abs=1e-12
    )
    assert sum(classical_means(fixture_obs, fixture_state)) == pytest.approx(
        3.2, abs=1e-12
    )
    _report(
        "criterion 5: |Tr(rho H) - classical sum| < 1e-10 on 1e4 pairs; "
        "worked fixture gives 3.2 on both routes"
    )


def test_criterion_6_projector_identities(rng):
    for _ in range(10**3):
        p = random_pure(rng)
        q = orthogonal_partner(p)
        w = SuperpositionWeights(random_pure(rng))
        matrix = assemble_projector_sum(p, q, w)
        assert abs(matrix - matrix.conj().T).max() < 1e-10
        assert abs(np.trace(matrix).real - 1.0) < 1e-10
        assert abs(matrix @ matrix - matrix).max() < 1e-10
    _report(
        "criterion 6: projector sum Hermitian, unit trace and idempotent "
        "within 1e-10 on 1e3 orthogonal fixtures"
    )


def test_criterion_7_malevich_fixtures(rng):
    assert triada_sides(ProbabilityTriple(0.5, 0.5, 0.5)).sides() == pytest.approx(
        (math.sqrt(0.5),) * 3, abs=1e-12
    )
    assert triada_sides(ProbabilityTriple(1, 1, 1)).sides() == pytest.approx(
        (math.sqrt(2),) * 3, abs=1e-12
    )
    assert triada_sides(ProbabilityTriple(0.5, 0.5, 1)).sides() == pytest.approx(
        (math.sqrt(0.5), math.sqrt(1.5), math.sqrt(0.5)), abs=1e-12
    )
    for _ in range(10**3):
        p = random_valid(rng)
        l1, l2, l3 = triada_sides(p).sides()
        rotated = triada_sides(ProbabilityTriple(p.p2, p.p3, p.p1)).sides()
        assert rotated == pytest.approx((l2, l3, l1), abs=1e-12)
    _report(
        "criterion 7: Malevich side fixtures within 1e-12; cyclic "
        "covariance on 1e3 triples"
    )


def test_criterion_8_circle_identities(rng):
    for _ in range(10**4):
        p = random_pure(rng)
        d1, d2, d3 = p.p1 - 0.5, p.p2 - 0.5, p.p3 - 0.5
        assert abs(d1 * d1 + d2 * d2 - p.p3 * (1 - p.p3)) < 1e-10
        assert abs(d2 * d2 + d3 * d3 - p.p1 * (1 - p.p1)) < 1e-10
        assert abs(d3 * d3 + d1 * d1 - p.p2 * (1 - p.p2)) < 1e-10
    _report("criterion 8: circle identities within 1e-10 on 1e4 pure triples")


def test_criterion_9_tomography():
    target = ProbabilityTriple(0.7, 0.5, 0.5)
    report = run_experiment(target, 10**6, seed=20260823)
    for value, truth, stderr in zip(
        report.p_hat.vec(), target.vec(), report.std_errors
    ):
        assert abs(value - truth) < 4.0 * stderr
    pure_target = ProbabilityTriple(
        0.5 + 0.4 * math.cos(0.7), 0.5 + 0.4 * math.sin(0.7), 0.8
    )
    pure_report = run_experiment(pure_target, 10**6, seed=20260823)
    # noise can push the estimate marginally outside the ball, so take the
    # purity of the reconstructed matrix rather than the quantum-only form
    rho_hat = prob_to_density(pure_report.p_hat).as_array()
    assert abs(float(np.trace(rho_hat @ rho_hat).real) - 1.0) < 0.01
    _report(
        "criterion 9: seeded 1e6-flip run within 4 standard errors per "
        "axis; reconstructed purity of a pure target within 0.01 of 1"
    )


def test_criterion_10_interference_fringe():
    up = ProbabilityTriple(0.5, 0.5, 1.0)
    down = ProbabilityTriple(0.5, 0.5, 0.0)
    for k in range(64):
        alpha = 2.0 * math.pi * k / 64.0
        state = superpose_oracle(up, down, weights_for_phase(alpha)).state
        assert abs(state.p1 - (0.5 + 0.5 * math.cos(alpha))) < 1e-10
        assert abs(state.p2 - (0.5 + 0.5 * math.sin(alpha))) < 1e-10
    _report(
        "criterion 10: 64-point phase sweep reproduces the cosine/sine "
        "fringe within 1e-10"
    )


def test_criterion_11_degenerate_branches():
    plus = ProbabilityTriple(1.0, 0.5, 0.5)
    with pytest.raises(DegenerateSuperpositionError):
        superpose_oracle(plus, plus, weights_for_phase(math.pi))

    up = ProbabilityTriple(0.5, 0.5, 1.0)
    down = ProbabilityTriple(0.5, 0.5, 0.0)
    with pytest.raises(DegeneratePhaseStateError):
        superpose_orthogonal(
            up,
            down,
            SuperpositionWeights(ProbabilityTriple(1.0, 0.5, 0.5)),
            rho0=prob_to_density(up),
        )

    fallback = superpose_general(
        up, down, SuperpositionWeights(ProbabilityTriple(1.0, 0.5, 0.5))
    )
    assert fallback.fallback_used
    _report(
        "criterion 11: destructive-interference error, vanishing phase "
        "trace error and pole fallback flag each exercised"
    )
