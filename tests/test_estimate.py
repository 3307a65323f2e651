"""estimate's fold over flip records.  Most tests take plain record lists,
so this module imports no numpy at the top; the tests that draw flips are
marked needs_numpy."""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinqubit import (
    EstimateReport,
    FlipRecord,
    InsufficientDataError,
    ProbabilityTriple,
    estimate,
    reconstruct,
    run_experiment,
    sample_flips,
)
from coinqubit import tomography
from coinqubit.tomography import AXES, OUTCOMES, _CHUNK

PURE_TARGET = ProbabilityTriple(
    0.5 + 0.4 * math.cos(0.7), 0.5 + 0.4 * math.sin(0.7), 0.8
)


def per_record_report(records, seed):
    """The report of a plain per-record count, or its InsufficientDataError."""
    ups = dict.fromkeys(AXES, 0)
    totals = dict.fromkeys(AXES, 0)
    for record in records:
        totals[record.axis] += 1
        ups[record.axis] += record.outcome == "up"
    missing = [axis for axis in AXES if totals[axis] == 0]
    if missing:
        return InsufficientDataError(f"no flips recorded for axis/axes {missing}")
    p_hat = [ups[axis] / totals[axis] for axis in AXES]
    errors = tuple(math.sqrt(v * (1.0 - v) / totals[axis])
                   for v, axis in zip(p_hat, AXES))
    return EstimateReport(
        ProbabilityTriple(*p_hat), tuple(totals.values()), errors, seed)


def records(pairs):
    return [FlipRecord(axis, outcome, trial)
            for trial, (axis, outcome) in enumerate(pairs)]


def constructor_error(axis, outcome):
    with pytest.raises(ValueError) as info:
        FlipRecord(axis, outcome, 0)
    return str(info.value)


class TestFold:
    @given(pairs=st.lists(st.tuples(st.sampled_from(AXES), st.sampled_from(OUTCOMES))),
           one_shot=st.booleans(), seed=st.none() | st.integers(0, 2**70))
    @example(pairs=[], one_shot=False, seed=None)
    @example(pairs=list(zip("xyzxyz", ["up"] * 3 + ["down"] * 3)), one_shot=True, seed=0)
    @example(pairs=[("x", "up"), ("z", "down"), ("x", "down")], one_shot=False, seed=1)
    @example(pairs=[("y", "up")] * 3 + [("x", "down"), ("z", "up")] + [("y", "down")],
             one_shot=True, seed=None)
    @settings(max_examples=500, deadline=None)
    def test_equals_a_per_record_count_in_any_order(self, pairs, one_shot, seed):
        """Interleaved axes, runs of one record and missing axes; a one-shot
        generator is read as a list is."""
        flips = records(pairs)
        want = per_record_report(flips, seed)
        stream = (record for record in flips) if one_shot else flips
        if isinstance(want, InsufficientDataError):
            with pytest.raises(InsufficientDataError) as info:
                estimate(stream, seed)
            assert str(info.value) == str(want)
        else:
            assert estimate(stream, seed) == want

    def test_forced_frequencies(self):
        flips = [
            FlipRecord(axis, "up", trial)
            for axis, trial in itertools.product("xyz", range(4))
        ]
        report = estimate(flips)
        assert report.p_hat == ProbabilityTriple(1, 1, 1)
        assert report.p_hat.classify() == "classical"

    def test_half_split(self):
        flips = [
            FlipRecord(axis, outcome, trial)
            for axis in "xyz"
            for trial, outcome in enumerate(["up", "down"] * 5)
        ]
        report = estimate(flips)
        assert report.p_hat == ProbabilityTriple(0.5, 0.5, 0.5)
        rho, verdict = reconstruct(report)
        assert verdict == "mixed"
        assert rho.rho00 == pytest.approx(0.5)
        assert rho.rho01 == 0.0

    def test_missing_axis(self):
        with pytest.raises(InsufficientDataError):
            estimate([FlipRecord("x", "up", 0)])

    @pytest.mark.parametrize("seed", [math.nan, 0.5, "7", True])
    def test_the_seed_is_none_or_an_int(self, seed):
        """A seed that is no int is a TypeError before any flip is read
        (estimate once stored a nan seed in its report)."""
        def flips():
            pytest.fail("a flip was read")
            yield

        with pytest.raises(TypeError, match="^seed must be an int, got "):
            estimate(flips(), seed)
        assert estimate([FlipRecord(a, "up", 0) for a in "xyz"], seed=7).seed == 7


class TestUncountableRecords:
    """A record estimate cannot count is the ValueError FlipRecord's
    constructor raises for it (an unknown axis was once a bare KeyError, an
    unknown outcome counted as "down")."""

    VALID = [FlipRecord(a, "up", 0) for a in AXES]

    @pytest.mark.parametrize("bad", [
        tuple.__new__(FlipRecord, ("w", "up", 0)),  # past the constructor's checks
        SimpleNamespace(axis="w", outcome="up"),
    ], ids=["record", "any-object"])
    def test_an_unknown_axis(self, bad):
        with pytest.raises(ValueError) as info:
            estimate([*self.VALID, bad])
        assert str(info.value) == constructor_error("w", "up")

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_an_unknown_outcome(self, position):
        flips = [FlipRecord("y", "up", t) for t in range(3)]
        flips.insert(position, tuple.__new__(FlipRecord, ("y", "UP", 9)))
        with pytest.raises(ValueError) as info:
            estimate([*self.VALID, *flips])
        assert str(info.value) == constructor_error("y", "UP")

    @pytest.mark.parametrize("outcome", [["up"], {"up": 1}, {"up"}, bytearray(b"up")],
                             ids=["list", "dict", "set", "bytearray"])
    def test_an_unhashable_outcome(self, outcome):
        """An unhashable value is no outcome; estimate counts by equality, so
        it is the constructor's ValueError, not a TypeError from hashing it."""
        with pytest.raises(ValueError) as info:
            estimate([SimpleNamespace(axis="x", outcome=outcome)])
        assert str(info.value) == constructor_error("x", outcome)

    def test_the_first_unknown_outcome_is_named(self):
        flips = [SimpleNamespace(axis="x", outcome=o) for o in ("up", "UP", "Down", "UP")]
        with pytest.raises(ValueError) as info:
            estimate(flips)
        assert str(info.value) == constructor_error("x", "UP")


@pytest.mark.needs_numpy
class TestSampledStream:
    def test_matches_run_experiment(self):
        p = ProbabilityTriple(0.6, 0.5, 0.7)
        report = estimate(sample_flips(p, 500, 9), seed=9)
        assert report == run_experiment(p, 500, 9)

    def test_matches_run_experiment_across_a_chunk_boundary(self):
        n = _CHUNK + 1
        report = estimate(sample_flips(PURE_TARGET, n, 9), seed=9)
        assert report == run_experiment(PURE_TARGET, n, 9)

    def test_std_errors(self):
        report = run_experiment(ProbabilityTriple(0.6, 0.5, 0.7), 400, 5)
        for value, err in zip(report.p_hat.vec(), report.std_errors):
            assert err == pytest.approx(math.sqrt(value * (1 - value) / 400))

    def test_one_run_per_axis(self, monkeypatch):
        """A sample_flips stream is three runs, one per axis across every
        chunk, so estimate checks three axes."""
        checked = []

        def check(name, value, allowed):
            checked.append((name, value))

        monkeypatch.setattr(tomography, "_check_field", check)
        estimate(sample_flips(PURE_TARGET, 2 * _CHUNK + 1, 4))
        assert [value for name, value in checked if name == "axis"] == list(AXES)

    def test_memory_does_not_grow_with_the_stream(self, monkeypatch):
        """The fold holds one chunk of records at a time, never the stream;
        a small chunk keeps the streams short (a fold that lists the stream
        grows by about 2 MB here)."""
        monkeypatch.setattr(tomography, "_CHUNK", 1024)
        estimate(sample_flips(PURE_TARGET, 10, 0))  # import numpy before tracing
        peaks = []
        for n in (2 * 1024, 8 * 1024):
            tracemalloc.start()
            try:
                estimate(sample_flips(PURE_TARGET, n, 6), seed=6)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**14
