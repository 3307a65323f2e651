"""Typed errors from every public name: whatever numbers it is given, a
public call returns finite floats or raises CoinQubitError, ValueError or
TypeError."""

import importlib.util
import math
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import coinqubit
from coinqubit import (
    CoinObservable,
    DensityMatrix2,
    FlipRecord,
    MalevichTriada,
    ProbabilityTriple,
    Spinor2,
    SuperpositionWeights,
    estimate,
    orthogonal_partner,
    prob_to_density,
    prob_to_spinor,
    run_experiment,
    triada_sides,
    weights_for_phase,
)
from coinqubit.states import _Frozen

ALLOWED = (coinqubit.CoinQubitError, ValueError, TypeError)
HAS_NUMPY = importlib.util.find_spec("numpy") is not None
# the public names that build or read numpy arrays
NEEDS_NUMPY = {"assemble_projector_sum", "delta_decomposition", "sample_outcomes",
               "sample_flips", "write_flips"}
HUGE = 10 ** 400  # an int too large for a float
LONG = 10 ** 5000  # an int too long for repr (Python's 4300-digit limit)


class _Float(float):
    """A float subclass, which every constructor stores as a float."""


class Build:
    """A call made when the example runs, so that what an argument's own
    constructor raises counts as the call's typed error."""

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args

    def make(self):
        return self.fn(*(_made(arg) for arg in self.args))

    def __repr__(self) -> str:
        return f"{getattr(self.fn, '__name__', self.fn)}{self.args!r}"


def _made(arg):
    if isinstance(arg, list):  # a list of arguments, such as flip records
        return [_made(item) for item in arg]
    return arg.make() if isinstance(arg, Build) else arg


_EDGES = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf,
          sys.float_info.max, -sys.float_info.max, sys.float_info.min, 5e-324,
          1e-12, -1e-12, 1.0 + 1e-12, math.sqrt(2.0), math.sqrt(2.0) + 1e-9,
          math.pi, 1e154, 1.4e154, -1.4e154, 1e308]
NUMBERS = st.one_of(
    st.floats(), st.floats(-2.0, 2.0), st.floats(0.0, 1.0), st.sampled_from(_EDGES),
    st.sampled_from(_EDGES).map(_Float), st.booleans(), st.integers(-3, 3),
    st.integers(), st.sampled_from([HUGE, -HUGE, LONG, -LONG]),
)
COMPLEX = st.one_of(st.complex_numbers(), st.complex_numbers(max_magnitude=1.0),
                    st.builds(complex, st.sampled_from(_EDGES), st.sampled_from(_EDGES)),
                    NUMBERS)
UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))


def _on_sphere(z: float, phi: float, digits: int | None) -> tuple:
    """The pure triple at height z and azimuth phi, each coin rounded to
    `digits` decimals unless that is None."""
    r = math.sqrt(max(1.0 - z * z, 0.0)) / 2.0
    coins = (0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi), 0.5 + z / 2.0)
    return coins if digits is None else tuple(round(c, digits) for c in coins)


def _in_ball(z: float, phi: float, shrink: float) -> tuple:
    return tuple(0.5 + shrink * (c - 0.5) for c in _on_sphere(z, phi, None))


_ANGLES = (st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0, 1e-13])),
           st.one_of(st.floats(0.0, 2 * math.pi), st.sampled_from([0.0, math.pi / 2])))
PURE = st.builds(_on_sphere, *_ANGLES,
                 st.one_of(st.none(), st.integers(10, 15), st.integers(7, 9)))
TRIPLES = st.one_of(
    PURE, st.builds(_in_ball, *_ANGLES, UNIT),
    st.tuples(*[st.sampled_from([0.0, -0.0, 0.5, 1.0, -1e-12, 1.0 + 1e-12])] * 3),
    st.tuples(NUMBERS, NUMBERS, NUMBERS),
).map(lambda coins: Build(ProbabilityTriple, *coins))
PURE_TRIPLES = PURE.map(lambda coins: Build(ProbabilityTriple, *coins))
PURE_PAIRS = st.tuples(PURE_TRIPLES, PURE_TRIPLES)
# a pure pair, independent or a state and its orthogonal partner, or any pair
PAIRS = st.one_of(
    PURE_PAIRS, PURE_TRIPLES.map(lambda p: (p, Build(orthogonal_partner, p))),
    PURE_TRIPLES.map(lambda p: (Build(orthogonal_partner, p), p)),
    st.tuples(TRIPLES, TRIPLES),
)
WEIGHTS = st.one_of(
    PURE_TRIPLES.map(lambda p: Build(SuperpositionWeights, p)), PURE_TRIPLES, TRIPLES,
    st.builds(lambda alpha, pi3: Build(weights_for_phase, alpha, pi3), NUMBERS,
              st.one_of(UNIT, NUMBERS)),
)
OBSERVABLES = st.one_of(
    st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.tuples(*[NUMBERS] * 4),
).map(lambda coefficients: Build(CoinObservable, *coefficients))
TRIADAS = st.one_of(TRIPLES.map(lambda p: Build(triada_sides, p)),
                    st.tuples(NUMBERS, NUMBERS, NUMBERS).map(
                        lambda sides: Build(MalevichTriada, *sides)))
MATRIX_ENTRIES = st.one_of(
    st.tuples(NUMBERS, COMPLEX, NUMBERS),
    st.builds(lambda rho00, rho01: (rho00, rho01, 1.0 - rho00), st.floats(-1.0, 2.0),
              COMPLEX))
MATRICES = st.one_of(TRIPLES.map(lambda p: Build(prob_to_density, p)),
                     MATRIX_ENTRIES.map(lambda entries: Build(DensityMatrix2, *entries)))
SPINOR_FIELDS = st.one_of(
    st.tuples(NUMBERS, NUMBERS, NUMBERS),
    st.builds(lambda theta, phase: (math.cos(theta), math.sin(theta), phase),
              st.floats(0.0, math.pi / 2), NUMBERS))
SPINORS = st.one_of(PURE_TRIPLES.map(lambda p: Build(prob_to_spinor, p)),
                    SPINOR_FIELDS.map(lambda fields: Build(Spinor2, *fields)))
# flips per axis kept small: a valid n draws n flips, so no huge positive n
FLIP_COUNTS = st.one_of(st.integers(-3, 8), st.sampled_from(
    [-LONG, -HUGE, True, 1.5, math.nan, "3", None]))
SEEDS = st.one_of(st.integers(0, 2 ** 64), st.sampled_from(
    [-1, -LONG, HUGE, LONG, True, 0.5, math.nan, None]))
VALID_RECORD_FIELDS = st.tuples(st.sampled_from(["x", "y", "z"]),
                                st.sampled_from(["up", "down"]), st.integers(0, 5))
RECORD_FIELDS = st.one_of(VALID_RECORD_FIELDS, st.tuples(
    st.sampled_from(["x", "y", "z", "w", 0]), st.sampled_from(["up", "down", "side"]),
    st.one_of(st.integers(-2, 5), st.sampled_from([-LONG, LONG, HUGE, 0.5]))))
FLIPS = st.one_of(st.lists(RECORD_FIELDS, max_size=8),
                  st.lists(VALID_RECORD_FIELDS, min_size=3, max_size=30)).map(
    lambda records: Build(list, [Build(FlipRecord, *fields) for fields in records]))
REPORTS = st.one_of(
    st.builds(lambda p, n, seed: Build(run_experiment, p, n, seed),
              TRIPLES, FLIP_COUNTS, SEEDS),
    st.builds(lambda flips, seed: Build(estimate, flips, seed), FLIPS, SEEDS),
)
_ERRORS = ("CoinQubitError DomainError ClassicalStateError NotPureError "
           "NotOrthogonalError DegenerateSuperpositionError "
           "DegeneratePhaseStateError InsufficientDataError").split()

# public name -> a strategy for its arguments
CALLS = {
    **{name: st.tuples(NUMBERS) for name in _ERRORS},
    "ProbabilityTriple": st.tuples(NUMBERS, NUMBERS, NUMBERS),
    "DensityMatrix2": MATRIX_ENTRIES,
    "Spinor2": SPINOR_FIELDS,
    **{name: st.tuples(TRIPLES) for name in (
        "prob_to_density", "is_quantum", "purity", "coin_phase", "prob_to_spinor",
        "coins_to_complex", "SuperpositionWeights", "triada_sides")},
    "density_to_prob": st.tuples(MATRICES),
    "fidelity": PAIRS,
    "spinor_to_prob": st.tuples(SPINORS),
    "complex_to_coins": st.tuples(COMPLEX),
    "CoinObservable": st.tuples(*[NUMBERS] * 4),
    **{name: st.tuples(OBSERVABLES, TRIPLES)
       for name in ("classical_means", "second_moments", "quantum_mean")},
    # records keep their arguments as given: finite ones here
    "SuperpositionResult": st.tuples(TRIPLES, st.floats(0.0, 4.0), st.just("path"),
                                     st.booleans()),
    "EstimateReport": st.tuples(TRIPLES, st.just((1, 1, 1)), st.just((0.0, 0.0, 0.0)),
                                st.one_of(st.none(), st.integers())),
    **{name: st.builds(lambda pair, w: (*pair, w), PAIRS, WEIGHTS) for name in (
        "superpose_oracle", "superpose_general", "superpose_orthogonal",
        "superpose_spinor", "superpose_checked")},
    **{name: st.builds(lambda pair, w, rho0: (*pair, w, rho0), PAIRS, WEIGHTS,
                       st.one_of(st.none(), MATRICES))
       for name in ("assemble_projector_sum", "delta_decomposition")},
    "orthogonal_partner": st.tuples(st.one_of(PURE_TRIPLES, TRIPLES), st.one_of(
        st.sampled_from(["+", "-"]), st.sampled_from(["*", "", None]), NUMBERS)),
    "unit_normalization_phase": st.one_of(PURE_PAIRS, PAIRS),
    "weights_for_phase": st.tuples(NUMBERS, st.one_of(UNIT, NUMBERS)),
    "MalevichTriada": st.tuples(NUMBERS, NUMBERS, NUMBERS),
    "render_svg": st.tuples(TRIADAS, NUMBERS, st.booleans()),
    "FlipRecord": RECORD_FIELDS,
    **{name: st.tuples(TRIPLES, FLIP_COUNTS, SEEDS)
       for name in ("sample_outcomes", "sample_flips", "run_experiment")},
    "estimate": st.tuples(FLIPS, SEEDS),
    "write_flips": st.tuples(TRIPLES, FLIP_COUNTS, SEEDS),
    "reconstruct": st.tuples(REPORTS),
}


def _floats(value):
    """Every float that `value` holds, walking tuples, lists, dicts, value
    types and arrays."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, complex):
        yield from (value.real, value.imag)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, dict):
        yield from _floats(list(value.values()))
    elif isinstance(value, _Frozen):
        yield from _floats(value._values())
    elif hasattr(value, "tolist"):  # a numpy array or scalar
        yield from _floats(value.tolist())


def test_the_property_covers_every_public_name():
    assert set(CALLS) == set(coinqubit.__all__)


def test_every_public_call_returns_finite_floats_or_a_typed_error():
    names = sorted(set(CALLS) - (set() if HAS_NUMPY else NEEDS_NUMPY))
    calls = st.sampled_from(names).flatmap(
        lambda name: CALLS[name].map(lambda args: (name, args)))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/flips.csv"

        @given(calls)
        @settings(max_examples=2500, deadline=None)
        def typed(call):
            name, args = call
            args = list(args) + ([path] if name == "write_flips" else [])
            try:
                result = getattr(coinqubit, name)(*(_made(arg) for arg in args))
                if name == "sample_flips":  # it draws as it is read
                    result = list(result)
            except ALLOWED:
                return
            bad = [x for x in _floats(result) if not math.isfinite(x)]
            assert not bad, f"{name} returned {result!r}"

        typed()
