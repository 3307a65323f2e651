"""The package surface: lazy imports and the contract of the value types."""

import ast
import copy
import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinqubit import (
    CoinObservable,
    DensityMatrix2,
    DomainError,
    FlipRecord,
    MalevichTriada,
    ProbabilityTriple,
    Spinor2,
    SuperpositionWeights,
    complex_to_coins,
    density_to_prob,
    orthogonal_partner,
    prob_to_density,
    prob_to_spinor,
    quantum_mean,
    render_svg,
    run_experiment,
    superpose_checked,
    superpose_general,
    superpose_oracle,
    superpose_orthogonal,
    superpose_spinor,
    triada_sides,
    weights_for_phase,
)
from coinqubit.malevich import SIDE_MAX, _side_length
from coinqubit.observables import _coefficient
from coinqubit.states import (
    SIDE_TOL,
    SPILL_TOL,
    UNIT_TOL,
    _entries_to_prob,
    _shown,
    _unit_interval,
)

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

_PLUS = (1, 0.5, 0.5)
_W = (0.5, 1, 0.5)
HUGE = 10 ** 400  # an int too large for a float
LONG = 10 ** 5000  # an int too long for repr (Python's 4300-digit limit)

# (build one value, its repr as the frozen dataclasses printed it, its fields)
VALUES = [
    (lambda: ProbabilityTriple(*_PLUS),
     "ProbabilityTriple(p1=1.0, p2=0.5, p3=0.5)", ("p1", "p2", "p3")),
    (lambda: prob_to_density(ProbabilityTriple(0.75, 0.25, 0.5)),
     "DensityMatrix2(rho00=0.5, rho01=(0.25+0.25j), rho11=0.5)",
     ("rho00", "rho01", "rho11")),
    (lambda: prob_to_spinor(ProbabilityTriple(*_W)),
     "Spinor2(amplitude0=0.7071067811865476, amplitude1=0.7071067811865476, "
     "phase=1.5707963267948966)", ("amplitude0", "amplitude1", "phase")),
    (lambda: SuperpositionWeights(ProbabilityTriple(*_W)),
     "SuperpositionWeights(triple=ProbabilityTriple(p1=0.5, p2=1.0, p3=0.5))",
     ("triple",)),
    (lambda: superpose_general(
        ProbabilityTriple(0.5, 0.5, 1), ProbabilityTriple(0.5, 0.5, 0),
        SuperpositionWeights(ProbabilityTriple(*_W))),
     "SuperpositionResult(state=ProbabilityTriple(p1=0.5, p2=1.0, p3=0.5), "
     "normalization=1.0000000000000002, path='general_closed_form', "
     "fallback_used=True)", ("state", "normalization", "path", "fallback_used")),
    (lambda: superpose_general(
        ProbabilityTriple(*_PLUS), ProbabilityTriple(0, 0.5, 0.5),
        SuperpositionWeights(ProbabilityTriple(*_W))),
     "SuperpositionResult(state=ProbabilityTriple(p1=0.5, p2=0.0, p3=0.5), "
     "normalization=1.0, path='general_closed_form', fallback_used=False)",
     ("state", "normalization", "path", "fallback_used")),
    (lambda: triada_sides(ProbabilityTriple(0, 0, 0)),
     "MalevichTriada(L1=1.4142135623730951, L2=1.4142135623730951, "
     "L3=1.4142135623730951)", ("L1", "L2", "L3")),
    (lambda: CoinObservable(1, 2, 3, -1),
     "CoinObservable(x=1.0, y=2.0, z1=3.0, z2=-1.0)", ("x", "y", "z1", "z2")),
    (lambda: run_experiment(ProbabilityTriple(*_PLUS), 10, 7),
     "EstimateReport(p_hat=ProbabilityTriple(p1=1.0, p2=0.9, p3=0.5), "
     "counts=(10, 10, 10), std_errors=(0.0, 0.09486832980505137, "
     "0.15811388300841897), seed=7)", ("p_hat", "counts", "std_errors", "seed")),
]
IDS = [text.split("(")[0] for _, text, _ in VALUES]


@pytest.mark.parametrize("build, text, fields", VALUES, ids=IDS)
class TestValueTypes:
    def test_repr(self, build, text, fields):
        assert repr(build()) == text

    def test_equal_instances_hash_equal(self, build, text, fields):
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_fields_are_read_only(self, build, text, fields):
        value = build()
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == build()

    def test_pickle_and_deepcopy_round_trip(self, build, text, fields):
        value = build()
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                     copy.copy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)

    def test_keyword_construction(self, build, text, fields):
        value = build()
        assert type(value)(**{name: getattr(value, name) for name in fields}) == value

    def test_match_args(self, build, text, fields):
        value = build()
        cls = type(value)
        assert cls.__match_args__ == fields
        match value:
            case cls(first):
                assert first == getattr(value, fields[0])
            case _:
                pytest.fail("positional class pattern did not match")


def test_equality_is_type_strict():
    triada, triple = MalevichTriada(1, 1, 1), ProbabilityTriple(1, 1, 1)
    assert triada != triple and not triada == triple
    assert ProbabilityTriple(0.5, 0.5, 0.5) != (0.5, 0.5, 0.5)
    assert ProbabilityTriple(0.5, 0.5, 0.5) != ProbabilityTriple(0.5, 0.5, 0.25)


class _Float(float):
    """A float subclass: ProbabilityTriple stores its value as a float."""


class _NoSlots(ProbabilityTriple):
    """A subclass declared without __slots__, as user code may write one."""


class _EmptySlots(ProbabilityTriple):
    __slots__ = ()


def _bits(x: float) -> tuple:
    """x's type and bits, and the sign of a zero."""
    return type(x), x.hex(), math.copysign(1.0, x)


def _outcome(make, values):
    """The bits of what make(*values) returns, or its error's type and text."""
    try:
        return [_bits(x) for x in make(*values)]
    except Exception as exc:
        return type(exc), str(exc)


def _triple_fields(*values):
    p = ProbabilityTriple(*values)
    return p.p1, p.p2, p.p3


def _unit_fields(*values):
    return [_unit_interval(value, name) for value, name in zip(values, ("p1", "p2", "p3"))]


def _radius2(*values):
    p = ProbabilityTriple(*values)
    d1, d2, d3 = p.p1 - 0.5, p.p2 - 0.5, p.p3 - 0.5
    return p.radius2, d1 * d1 + d2 * d2 + d3 * d3


_EDGES = [-0.0, 0.0, 1.0, math.nan, math.inf, -math.inf, math.nextafter(0.0, 1.0),
          math.nextafter(-0.0, -1.0), math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
          -SPILL_TOL, 1.0 + SPILL_TOL, math.nextafter(-SPILL_TOL, -1.0),
          math.nextafter(1.0 + SPILL_TOL, 2.0)]
FLOATS = st.one_of(st.floats(), st.floats(-2 * SPILL_TOL, 1.0 + 2 * SPILL_TOL),
                   st.sampled_from(_EDGES))
FIELDS = st.one_of(FLOATS, FLOATS.map(_Float), st.booleans(), st.integers(-3, 3),
                   st.sampled_from([HUGE, -HUGE]))


@given(st.tuples(FIELDS, FIELDS, FIELDS))
@example((0.5, 0.5, 0.2643334679295621))  # a radius2 where ** 2 and * round apart
@settings(max_examples=1000, deadline=None)
def test_a_triple_holds_what_the_per_field_check_returns(values):
    """Bit for bit, or the same error: the one-comparison path for three
    floats in [0, 1] and the per-field path for every other input; the
    stored radius2 is the sum of the three products."""
    assert _outcome(_triple_fields, values) == _outcome(_unit_fields, values)
    built = _outcome(_radius2, values)
    if isinstance(built, list):  # no error: the stored radius2 is the formula's
        stored, formula = built
        assert stored == formula


@pytest.mark.needs_numpy
def test_a_triple_of_numpy_floats_holds_what_the_per_field_check_returns():
    np = pytest.importorskip("numpy")
    fields = st.one_of(FLOATS, FLOATS.map(np.float64))

    @given(st.tuples(fields, fields, fields))
    @settings(max_examples=300, deadline=None)
    def check(values):
        assert _outcome(_triple_fields, values) == _outcome(_unit_fields, values)

    check()


_SIDE_CAP = SIDE_MAX + SIDE_TOL
_SIDE_EDGES = [-0.0, 0.0, math.nan, math.inf, -math.inf, SIDE_MAX, _SIDE_CAP,
               math.nextafter(_SIDE_CAP, 0.0), math.nextafter(_SIDE_CAP, 2.0),
               math.nextafter(0.0, 1.0), math.nextafter(-0.0, -1.0)]
_FINITE_EDGES = [-0.0, 0.0, math.nan, math.inf, -math.inf, sys.float_info.max,
                 -sys.float_info.max, math.nextafter(0.0, 1.0), -1.0, 1e308]
_INTS = st.one_of(st.booleans(), st.integers(-3, 3), st.integers(),
                  st.sampled_from([HUGE, -HUGE, LONG, -LONG]))


def _holds_per_field(make, check, names, floats, fields, examples):
    """make(*values) (a value type) holds what check(value, name) (its
    per-field check) returns for each field, bit for bit, or raises the
    same error, over `examples` tuples: half of them all `floats`, so that
    one edge float among exact floats is common, and half `fields`."""
    def built(*values):
        value = make(*values)
        return [getattr(value, name) for name in names]

    def checked(*values):
        return [check(value, name) for value, name in zip(values, names)]

    @given(st.one_of(st.tuples(*[floats] * len(names)), st.tuples(*[fields] * len(names))))
    @settings(max_examples=examples, deadline=None)
    def holds(values):
        assert _outcome(built, values) == _outcome(checked, values)

    holds()


# (value type, its per-field check, its fields, edge floats for a field)
FAST_PATHS = [
    (MalevichTriada, _side_length, ("L1", "L2", "L3"), _SIDE_EDGES),
    (CoinObservable, _coefficient, ("x", "y", "z1", "z2"), _FINITE_EDGES),
]


@pytest.mark.parametrize("make, check, names, edges", FAST_PATHS,
                         ids=["triada", "observable"])
def test_a_fast_constructor_holds_what_the_per_field_check_returns(
        make, check, names, edges):
    """The one-comparison path for exact floats and the per-field path for
    every other input, zero signs included."""
    floats = st.one_of(st.floats(), st.floats(-0.5, 2.0), st.sampled_from(edges))
    _holds_per_field(make, check, names, floats,
                     st.one_of(floats, floats.map(_Float), _INTS), 1000)


@pytest.mark.needs_numpy
@pytest.mark.parametrize("make, check, names, edges", FAST_PATHS,
                         ids=["triada", "observable"])
def test_a_fast_constructor_of_numpy_floats_holds_what_the_per_field_check_returns(
        make, check, names, edges):
    np = pytest.importorskip("numpy")
    floats = st.one_of(st.floats(), st.floats(-0.5, 2.0), st.sampled_from(edges))
    _holds_per_field(make, check, names, floats,
                     st.one_of(floats, floats.map(np.float64)), 300)


def _via_matrix(rho00, rho01, rho11):
    p = density_to_prob(DensityMatrix2(rho00, rho01, rho11))
    return p.p1, p.p2, p.p3, p.radius2


def _via_entries(rho00, rho01, rho11):
    p = _entries_to_prob(rho00, rho01, rho11)
    return p.p1, p.p2, p.p3, p.radius2


_DIAGONAL = st.one_of(st.floats(), st.floats(-0.5, 1.5),
                      st.sampled_from([-0.0, 0.0, 1.0, math.nan, math.inf, -math.inf]))
_PARTS = st.one_of(st.floats(), st.floats(-0.6, 0.6),
                   st.sampled_from([-0.0, 0.0, 0.5, -0.5, math.nan, math.inf, -math.inf,
                                    math.nextafter(0.5, 1.0), -SPILL_TOL]))
# offsets of rho11 from 1 - rho00: the trace check's bound and either side
_OFFSETS = st.one_of(st.floats(-2 * UNIT_TOL, 2 * UNIT_TOL), st.sampled_from(
    [0.0, UNIT_TOL, -UNIT_TOL, 0.5 * UNIT_TOL, -0.5 * UNIT_TOL, 1.5 * UNIT_TOL]))


@given(_DIAGONAL, st.builds(complex, _PARTS, _PARTS),
       st.one_of(_DIAGONAL, _OFFSETS.map(lambda offset: (offset,))))
@settings(max_examples=1000, deadline=None)
def test_the_entries_give_the_triple_of_their_matrix(rho00, rho01, rho11):
    """_entries_to_prob(rho00, rho01, rho11) returns what density_to_prob
    returns for the matrix of those entries, bit for bit, or raises the
    matrix's error with its message: trace, rho01 and the triple's own."""
    if isinstance(rho11, tuple):  # a trace at or next to 1
        rho11 = 1.0 - rho00 + rho11[0]
    values = (rho00, rho01, rho11)
    assert _outcome(_via_entries, values) == _outcome(_via_matrix, values)


def test_the_kernels_build_no_matrix(monkeypatch):
    """The superposition paths and quantum_mean compute a state's entries
    and build no DensityMatrix2 for them."""
    built = []
    init = DensityMatrix2.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(DensityMatrix2, "__init__", counting)
    plus, minus = ProbabilityTriple(*_PLUS), ProbabilityTriple(0, 0.5, 0.5)
    up, w = ProbabilityTriple(0.5, 0.5, 1), SuperpositionWeights(ProbabilityTriple(*_W))
    low = ProbabilityTriple(0.5009999995, 0.5, 1e-6)  # general hands over to the oracle
    obs = CoinObservable(1, 2, 3, -1)
    results = [f(plus, minus, w) for f in (superpose_oracle, superpose_orthogonal,
                                           superpose_spinor, superpose_checked)]
    results += [superpose_checked(plus, up, w), superpose_checked(low, up, w),
                quantum_mean(obs, ProbabilityTriple(0.6, 0.7, 0.8))]
    assert results[3][1] and results[4][1] and results[5][0].fallback_used
    assert built == []
    prob_to_density(plus)  # the count sees a matrix where one is built
    assert built == [(0.5, 0.5 + 0j, 0.5)]


def test_radius2_is_stored_but_no_field():
    p = ProbabilityTriple(0.3, 0.7, 0.5)
    d1, d2, d3 = 0.3 - 0.5, 0.7 - 0.5, 0.5 - 0.5
    assert _bits(p.radius2) == _bits(d1 * d1 + d2 * d2 + d3 * d3)
    for change in (lambda: setattr(p, "radius2", 0.25), lambda: delattr(p, "radius2")):
        with pytest.raises(AttributeError, match="radius2"):
            change()
    assert repr(p) == "ProbabilityTriple(p1=0.3, p2=0.7, p3=0.5)"
    assert ProbabilityTriple.__match_args__ == ("p1", "p2", "p3")
    assert p.__reduce__() == (ProbabilityTriple, (0.3, 0.7, 0.5))
    assert hash(p) == hash((0.3, 0.7, 0.5))
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and _bits(twin.radius2) == _bits(p.radius2)
    with pytest.raises(TypeError):
        ProbabilityTriple(p1=0.3, p2=0.7, p3=0.5, radius2=0.25)
    with pytest.raises(TypeError, match="3 positional sub-patterns"):
        match p:
            case ProbabilityTriple(_, _, _, _):
                pass


@pytest.mark.parametrize("cls", [_NoSlots, _EmptySlots], ids=["no-slots", "empty-slots"])
def test_a_subclass_builds_compares_and_pickles(cls):
    p = cls(1, 0.5, 0.5)
    assert repr(p) == f"{cls.__qualname__}(p1=1.0, p2=0.5, p3=0.5)"
    assert cls.__match_args__ == ("p1", "p2", "p3")
    assert p == cls(1.0, 0.5, 0.5) and hash(p) == hash(cls(1.0, 0.5, 0.5))
    assert p != cls(0.0, 0.5, 0.5) and p != ProbabilityTriple(1, 0.5, 0.5)
    assert p.radius2 == 0.25 and p.classify() == "pure"
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert type(twin) is cls and twin == p
    with pytest.raises(AttributeError):
        p.p1 = 0.5


_BIG = "overflows a float"
_LONG = "got an int of 5001 digits"
_NEGATIVE_LONG = "got a negative int of 5001 digits"


@pytest.mark.parametrize("make, error, message", [
    (lambda: ProbabilityTriple(HUGE, 0.5, 0.5), DomainError, f"p1 {_BIG}"),
    (lambda: ProbabilityTriple(0.5, HUGE, 0.5), DomainError, f"p2 {_BIG}"),
    (lambda: ProbabilityTriple(0.5, 0.5, HUGE), DomainError, f"p3 {_BIG}"),
    (lambda: DensityMatrix2(HUGE, 0, 0.5), DomainError, f"rho00 {_BIG}"),
    (lambda: DensityMatrix2(0.5, HUGE, 0.5), DomainError, f"rho01 {_BIG}"),
    (lambda: DensityMatrix2(0.5, 0, HUGE), DomainError, f"rho11 {_BIG}"),
    (lambda: DensityMatrix2(HUGE, HUGE, 0.5), DomainError, f"rho00 {_BIG}"),
    (lambda: Spinor2(HUGE, 0, 0), DomainError, f"amplitude0 {_BIG}"),
    (lambda: Spinor2(1, HUGE, 0), DomainError, f"amplitude1 {_BIG}"),
    (lambda: Spinor2(1, 0, HUGE), DomainError, f"phase {_BIG}"),
    (lambda: Spinor2(HUGE, HUGE, 0), DomainError, f"amplitude0 {_BIG}"),
    (lambda: CoinObservable(HUGE, 0, 0, 0), DomainError, f"x {_BIG}"),
    (lambda: CoinObservable(0, HUGE, 0, 0), DomainError, f"y {_BIG}"),
    (lambda: CoinObservable(0, 0, HUGE, 0), DomainError, f"z1 {_BIG}"),
    (lambda: CoinObservable(0, 0, 0, HUGE), DomainError, f"z2 {_BIG}"),
    (lambda: MalevichTriada(HUGE, 1, 1), DomainError, f"L1 {_BIG}"),
    (lambda: MalevichTriada(1, HUGE, 1), DomainError, f"L2 {_BIG}"),
    (lambda: MalevichTriada(1, 1, HUGE), DomainError, f"L3 {_BIG}"),
    (lambda: complex_to_coins(HUGE), DomainError, f"z {_BIG}"),
    (lambda: weights_for_phase(HUGE), DomainError, f"alpha {_BIG}"),
    (lambda: render_svg(MalevichTriada(1, 1, 1), scale=HUGE), ValueError, f"scale {_BIG}"),
    (lambda: weights_for_phase(0.0, LONG), DomainError, f"Pi3 must lie in [0, 1], {_LONG}"),
    (lambda: orthogonal_partner(ProbabilityTriple(*_PLUS), LONG), DomainError,
     f"sign must be '+' or '-', {_LONG}"),
    (lambda: FlipRecord("x", "up", -LONG), ValueError,
     f"trial index must be nonnegative, {_NEGATIVE_LONG}"),
    (lambda: run_experiment(ProbabilityTriple(*_PLUS), -LONG, 1), ValueError,
     f"n_per_axis must be at least 1, {_NEGATIVE_LONG}"),
    (lambda: run_experiment(ProbabilityTriple(*_PLUS), 10, -LONG), ValueError,
     f"seed must be at least 0, {_NEGATIVE_LONG}"),
], ids=["triple", "p2", "p3", "rho00", "rho01", "rho11", "rho00-and-rho01",
        "amplitude0", "amplitude", "phase", "amplitude0-and-amplitude1", "x",
        "observable", "z1", "z2", "L1", "L2", "triada", "complex", "alpha", "scale",
        "pi3", "sign", "trial", "n_per_axis", "seed"])
def test_an_int_too_large_for_a_float_is_a_typed_error(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: ProbabilityTriple("0.5", 0.5, 0.5), "p1 must be a number, got str"),
    (lambda: DensityMatrix2(0.5, "0.1+0.2j", 0.5), "rho01 must be a number, got str"),
    (lambda: Spinor2(b"1", 0, 0), "amplitude0 must be a number, got bytes"),
    (lambda: MalevichTriada(1.0, bytearray(b"0.5"), 1.0),
     "L2 must be a number, got bytearray"),
    (lambda: CoinObservable(1, 2, 3, "4"), "z2 must be a number, got str"),
    (lambda: complex_to_coins("0.5"), "z must be a number, got str"),
    (lambda: weights_for_phase("0.5"), "alpha must be a number, got str"),
], ids=["p1", "rho01", "amplitude0", "L2", "z2", "z", "alpha"])
def test_text_is_not_a_number(make, message):
    """float() and complex() parse text; a field read through states._real
    refuses it, as the JSON reader refuses a text field."""
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("value, text", [
    (10 ** 4300 - 1, "9" * 4300), (10 ** 4300, "an int of 4301 digits"),
    (10 ** 4301 - 1, "an int of 4301 digits"), (10 ** 9999 - 1, "an int of 9999 digits"),
    (-(10 ** 9999), "a negative int of 10000 digits"), (0.5, "0.5"), ("+", "'+'"),
], ids=["4300-digits", "power-of-ten", "4301-nines", "9999-nines", "negative",
        "float", "str"])
def test_shown_counts_the_digits_of_an_int_too_long_for_repr(value, text):
    assert _shown(value) == text


# Runs each argument as a step, an expression or a statement, and prints
# one line per step: the repr of (its value, the watched modules it newly
# imported, the live thread count).  Under -S, where site imports nothing,
# typing and contextlib are watched too; the probe itself imports neither.
PROBE = """
import io, sys, threading

WATCHED = {"numpy", "argparse", "json", "gettext", "locale", "dataclasses",
           "concurrent.futures", "logging"}
if sys.flags.no_site:
    WATCHED |= {"typing", "contextlib"}

def cli(line):  # main's exit code and stdout for the argv line.split()
    from coinqubit.cli import main
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = main(line.split())
        return code, sys.stdout.getvalue()
    finally:
        sys.stdout = stdout

def raised(thunk):
    try:
        thunk()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

names = {"cli": cli, "raised": raised}
seen = set(sys.modules)
for step in sys.argv[1:]:
    try:
        code = compile(step, "<step>", "eval")
    except SyntaxError:  # a statement, such as an import
        code = compile(step, "<step>", "exec")
    value = eval(code, names)
    loaded = sorted(name for name in set(sys.modules) - seen
                    if name in WATCHED or name.startswith("coinqubit."))
    seen = set(sys.modules)
    print(repr((value, loaded, threading.active_count())))
"""

P = "--p1 1 --p2 0.5 --p3 0.5"  # |+>
W = "--w1 0.5 --w2 1 --w3 0.5"
FALLBACK = "'\"fallback_used\": true' in "
# (step run in the child, its value, the watched modules it newly loads):
# check, the other scalar subcommands, superpose (the hand-over pair
# included), mean, the kernels and sample up to _PLAIN_MAX flips per axis
# load no numpy, typing or contextlib; help, built from the command table,
# loads nothing watched.  These steps run under -S: a site that imports
# typing or contextlib (as certifi's .pth file does) would hide them
PLAIN_STEPS = [
    ("import coinqubit", None, []),
    ("set(coinqubit.__all__) <= set(dir(coinqubit))", True, []),
    ("raised(lambda: coinqubit.nope)",
     "AttributeError: module 'coinqubit' has no attribute 'nope'", []),
    (f"cli('check {P}')", (0, '{"class": "pure", "radius2": 0.25}\n'),
     ["coinqubit.cli", "coinqubit.errors", "coinqubit.states"]),
    (f"cli('purity {P}')[0]", 0, []),
    (f"cli('fidelity {P} --q1 0 --q2 0.5 --q3 0.5')[0]", 0, []),
    *((f"cli('convert {P} --to {to}')[0]", 0, [])
      for to in ("density", "spinor", "complex")),
    (f"cli('partner {P}')[0]", 0, ["coinqubit.superposition"]),
    (f"cli('triada {P}')[0]", 0, ["coinqubit.malevich"]),
    (f"cli('render {P} --labels')[0]", 0, []),
    ("T = coinqubit.ProbabilityTriple; plus, minus = T(1, 0.5, 0.5), T(0, 0.5, 0.5); "
     "w = coinqubit.SuperpositionWeights(T(0.5, 1, 0.5))", None, []),
    ("[f(plus, minus, w).path for f in (coinqubit.superpose_general, "
     "coinqubit.superpose_orthogonal, coinqubit.superpose_spinor)]",
     ["general_closed_form", "orthogonal_rule", "spinor_path"], []),
    ("coinqubit.superpose_oracle(plus, T(0.5, 1, 0.5), w).path", "matrix_oracle", []),
    (FALLBACK + f"cli('superpose {P} --q1 0 --q2 0.5 --q3 0.5 {W}')[1]", False, []),
    (FALLBACK + f"cli('superpose {P} --q1 0.5 --q2 1 --q3 0.5 {W}')[1]", False, []),
    (FALLBACK + "cli('superpose --p1 0.5009999995 --p2 0.5 --p3 1e-6 "
     f"--q1 0.5 --q2 1 --q3 0.5 {W}')[1]", True, []),
    (f"cli('mean {P} --x 1 --y 2 --z1 3 --z2=-1e3')[0]", 0, ["coinqubit.observables"]),
    ("coinqubit.quantum_mean(coinqubit.CoinObservable(1, 2, 3, -1), T(0.6, 0.7, 0.8))",
     3.2, []),
    *((f"cli('sample {P} --n {n} --seed 1')[0]", 0, loaded)
      for n, loaded in ((10, ["coinqubit.tomography"]), (4096, []))),
    ("cli('check -h')[1].startswith('usage: coinqubit check ')", True, []),
    ("from coinqubit import *", None, []),
    ("[n for n in coinqubit.__all__ if globals().get(n) is not getattr(coinqubit, n)]",
     [], []),
]
# sample beyond _PLAIN_MAX flips and sample --flips each load numpy, so
# each runs in a fresh child; run_experiment then counts on two pretend
# CPUs, joining its one worker thread, without concurrent.futures
LOADS_NUMPY = ["coinqubit.cli", "coinqubit.errors", "coinqubit.states",
               "coinqubit.tomography", "numpy"]
ARRAY_STEPS = [
    ("import coinqubit, os", None, []),
    (f"cli('sample {P} --n 4097 --seed 1')[0]", 0, LOADS_NUMPY),
    ("os.sched_getaffinity = lambda pid: {0, 1}", None, []),
    ("coinqubit.run_experiment(coinqubit.ProbabilityTriple(0.6, 0.5, 0.7), "
     "2 * 65536, 7).counts", (131072, 131072, 131072), []),
]
FLIPS_STEPS = [
    (f"cli('sample {P} --n 10 --seed 1 --flips flips.csv')[0]", 0, LOADS_NUMPY),
]


@pytest.mark.parametrize("flags, steps", [
    pytest.param(["-S"], PLAIN_STEPS, id="plain"),
    pytest.param([], ARRAY_STEPS, id="arrays", marks=pytest.mark.needs_numpy),
    pytest.param([], FLIPS_STEPS, id="flips", marks=pytest.mark.needs_numpy),
])
def test_each_step_loads_only_its_modules(tmp_path, flags, steps):
    """A fresh interpreter runs the steps in order; after each it reports
    the step's value, the watched modules the step newly imported and the
    live thread count."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, *(step for step, _, _ in steps)],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)), cwd=tmp_path,
        capture_output=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
    assert rows == [(value, loaded, 1) for _, value, loaded in steps]


def _names_and_strings(tree: ast.Module) -> tuple[set, set]:
    """Every identifier a module defines, imports or reads, and every str
    literal in it."""
    names, strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    return names, strings


def test_the_cli_is_a_thin_shell():
    """cli.py loads no numpy, imports no private name of the package and
    leaves the path-agreement rule to superposition.py; the tomography fold,
    its chunk stream, its CSV rows and the CSV header live in tomography.py
    only."""
    tomography_only = {"_fold", "_up_chunks", "_csv_rows"}
    for path in sorted((SRC_DIR / "coinqubit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, strings = _names_and_strings(tree)
        if path.name == "cli.py":
            imported = [
                (getattr(node, "module", None) or "", alias.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            ]
            assert not [i for i in imported if "numpy" in (i[0] + i[1]).split(".")]
            assert not [i for i in imported if i[1].startswith("_")]
            assert not names & {"PATH_AGREE_TOL", "NotOrthogonalError"}
        if path.name != "tomography.py":
            assert not names & tomography_only, path.name
            assert not [s for s in strings if "trial,axis,outcome" in s], path.name


@pytest.mark.needs_numpy
def test_the_readme_library_tour_runs(tmp_path, monkeypatch):
    """README's one python block runs as written; it writes flips.csv."""
    readme = (SRC_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    csv_text = (tmp_path / "flips.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("trial,axis,outcome\n")
