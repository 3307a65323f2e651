import itertools
import json
import math
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from coinqubit import (
    ClassicalStateError,
    FlipRecord,
    ProbabilityTriple,
    estimate,
    reconstruct,
    run_experiment,
    sample_flips,
    sample_outcomes,
    write_flips,
)
from coinqubit import tomography
from coinqubit.cli import main
from coinqubit.tomography import (
    AXES, _CHUNK, _PLAIN_MAX, _axis_rng, _plain_raw, _top, _up_chunks,
)

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

PURE_TARGET = ProbabilityTriple(
    0.5 + 0.4 * math.cos(0.7), 0.5 + 0.4 * math.sin(0.7), 0.8
)


class TestSampling:
    def test_certain_axis_is_all_up(self):
        outcomes = sample_outcomes(ProbabilityTriple(0.5, 0.5, 1.0), 200, 7)
        assert outcomes["z"].all()

    def test_determinism(self):
        p = ProbabilityTriple(0.5, 0.5, 0.5)
        first = list(sample_flips(p, 10, seed=42))
        second = list(sample_flips(p, 10, seed=42))
        assert first == second
        assert run_experiment(p, 1000, 42) == run_experiment(p, 1000, 42)

    def test_seeds_differ(self):
        p = ProbabilityTriple(0.5, 0.5, 0.5)
        assert list(sample_flips(p, 50, 1)) != list(sample_flips(p, 50, 2))

    def test_axis_streams_are_independent(self):
        # equal per-axis probabilities must not produce equal streams
        outcomes = sample_outcomes(ProbabilityTriple(0.5, 0.5, 0.5), 200, 3)
        assert not (outcomes["x"] == outcomes["y"]).all()

    def test_rejects_classical_target(self):
        with pytest.raises(ClassicalStateError):
            sample_outcomes(ProbabilityTriple(1, 1, 1), 10, 0)

    def test_concentration(self):
        report = run_experiment(ProbabilityTriple(0.7, 0.5, 0.5), 10**6, 123)
        bound = 4.0 * math.sqrt(0.21 / 10**6)
        assert abs(report.p_hat.p1 - 0.7) < bound

    def test_stream_layout(self):
        flips = list(sample_flips(ProbabilityTriple(0.5, 0.5, 0.5), 3, 0))
        assert [f.axis for f in flips] == ["x"] * 3 + ["y"] * 3 + ["z"] * 3
        assert [f.trial for f in flips] == [0, 1, 2] * 3


class TestChunkedDraw:
    """The chunked draw reproduces one draw per axis, in bounded memory."""

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_outcomes_equal_a_single_draw(self, n):
        outcomes = sample_outcomes(PURE_TARGET, n, 77)
        probs = (PURE_TARGET.p1, PURE_TARGET.p2, PURE_TARGET.p3)
        for i, axis in enumerate("xyz"):
            expected = _axis_rng(77, i).random(n) < probs[i]
            np.testing.assert_array_equal(outcomes[axis], expected)

    @pytest.mark.parametrize("coins, n", [
        *(pytest.param((0.6, 0.5, 0.7), n, id=f"n={n}")
          for n in (1, 9, 10, 11, _CHUNK + 1, 100001, 2 * _CHUNK + 1)),
        pytest.param((0.5, 0.5, 1.0), 1000, id="certain-z"),  # every z row is up
    ])
    def test_flips_csv_holds_the_sample_flips_stream(self, capsys, tmp_path, coins, n):
        path = tmp_path / "flips.csv"
        argv = ["sample", *(f"--p{i}={v}" for i, v in enumerate(coins, 1)),
                "--n", str(n), "--seed", "5", "--flips", str(path)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        p = ProbabilityTriple(*coins)
        rows = "".join(
            f"{f.trial},{f.axis},{f.outcome}\r\n" for f in sample_flips(p, n, 5)
        )
        assert path.read_bytes() == ("trial,axis,outcome\r\n" + rows).encode()
        assert payload["p_hat"] == run_experiment(p, n, 5).p_hat.to_json_dict()

    def test_flips_csv_memory_is_bounded(self, capsys, tmp_path):
        def sample(n):
            return main(["sample", "--p1", "0.6", "--p2", "0.5", "--p3", "0.7",
                         "--n", str(n), "--seed", "3",
                         "--flips", str(tmp_path / "flips.csv")])

        assert sample(10) == 0  # import numpy before tracing
        tracemalloc.start()
        try:
            assert sample(10**6) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 5 * 2**20

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_run_experiment_memory_is_bounded(self, monkeypatch, cpus):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        run_experiment(PURE_TARGET, 10, 0)  # import numpy before tracing
        tracemalloc.start()
        try:
            run_experiment(PURE_TARGET, 10**6 + 3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        parts = cpus  # 10**6 + 3 flips make 15 chunks
        # per slice: one chunk of uint64 outputs and its booleans, 9 bytes a
        # draw, and a slack of 16 KiB for its thread's and draw's objects
        slack = parts * 2**14
        assert peak <= parts * 9 * _CHUNK + slack


def _neighbours(prob: float) -> list[float]:
    """prob and the doubles on either side of it, within [0, 1]."""
    return [min(max(math.nextafter(prob, to), 0.0), 1.0) for to in (-1.0, prob, 2.0)]


EDGE_PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1 - 2**-53]),
    st.builds(lambda k, side: _neighbours(k * 2**-53)[side],
              st.integers(0, 2**53), st.integers(0, 2)),
    st.floats(0.0, 1.0),
)


class TestUpBound:
    """A flip is up where its raw 64-bit output x is at most _top(prob):
    exactly where Generator.random's double (x >> 11) * 2**-53 lies below
    prob."""

    @given(prob=EDGE_PROBS, x=st.integers(0, 2**64 - 1), step=st.integers(-2, 2))
    @settings(max_examples=1000, deadline=None)
    def test_bound_decides_as_the_double_does(self, prob, x, step):
        top = _top(prob)
        assert -1 <= top < 2**64
        for y in (x, min(max(top + step, 0), 2**64 - 1)):  # and beside the bound
            assert (y <= top) == ((y >> 11) * 2**-53 < prob)

    @pytest.mark.parametrize("lo, hi", [
        (0, _CHUNK + 1), (5, 2 * _CHUNK + 9), (_CHUNK - 1, 3 * _CHUNK)])
    def test_chunks_equal_generator_random(self, lo, hi):
        for i in range(3):
            doubles = _axis_rng(8, i).random(hi)
            raw = _axis_rng(8, i).bit_generator.random_raw(hi)
            at_top = lo + int(np.flatnonzero(raw[lo:] % 2048 == 2047)[0])
            # coins at 0, 1 and the ends of [0, 1); coins that tie with draws
            # of this axis in the first and the last chunk, with their
            # neighbours; and a coin whose bound is one of its draws
            probs = [0.0, 1.0, 5e-324, 1 - 2**-53,
                     *_neighbours(doubles[lo].item()), *_neighbours(doubles[-1].item()),
                     doubles[at_top].item() + 2**-53]
            for prob in probs:
                chunks = _up_chunks(ProbabilityTriple(prob, prob, prob), 8, lo, hi)
                up = np.concatenate([up for j, _, up in chunks if j == i])
                np.testing.assert_array_equal(up, doubles[lo:] < prob)


class TestWriteFlips:
    @pytest.mark.parametrize("n", [1, 9, _CHUNK + 1])
    def test_file_holds_the_sample_flips_stream(self, tmp_path, n):
        path = tmp_path / "flips.csv"
        write_flips(PURE_TARGET, n, 5, str(path))
        rows = "".join(
            f"{f.trial},{f.axis},{f.outcome}\r\n"
            for f in sample_flips(PURE_TARGET, n, 5)
        )
        assert path.read_bytes() == ("trial,axis,outcome\r\n" + rows).encode()

    @pytest.mark.parametrize("n", [1, _CHUNK, 2 * _CHUNK + 1])
    def test_report_equals_run_experiment(self, monkeypatch, tmp_path, n):
        # two CPUs: run_experiment counts 2 * _CHUNK + 1 flips on threads
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        report = write_flips(PURE_TARGET, n, 9, str(tmp_path / "flips.csv"))
        assert report == run_experiment(PURE_TARGET, n, 9)

    @pytest.mark.parametrize("p, n, seed, error", [
        (ProbabilityTriple(1, 1, 1), 5, 1, ClassicalStateError),
        (PURE_TARGET, 0, 1, ValueError),
        (PURE_TARGET, 5, None, TypeError),
    ], ids=["classical-target", "no-flips", "no-seed"])
    def test_bad_inputs_raise_before_the_file_exists(self, tmp_path, p, n, seed, error):
        path = tmp_path / "flips.csv"
        with pytest.raises(error):
            write_flips(p, n, seed, str(path))
        assert not path.exists()

    def test_an_unwritable_path_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            write_flips(PURE_TARGET, 5, 1, str(tmp_path / "missing" / "flips.csv"))


class TestCsvRows:
    """_csv_rows builds the bytes of one f-string per flip."""

    @pytest.mark.parametrize("start", [0, 1, 9, 10, 95, 99990, 10**8 - 5, 10**12 - 3])
    @pytest.mark.parametrize("length", [1, 20, _CHUNK])
    @pytest.mark.parametrize("kind", ["up", "down", "mixed"])
    def test_equal_to_one_f_string_per_flip(self, start, length, kind):
        up = {"up": np.ones(length, bool), "down": np.zeros(length, bool),
              "mixed": _axis_rng(start, 0).random(length) < 0.5}[kind]
        expected = "".join(
            f"{t},y,{'up' if u else 'down'}\r\n"
            for t, u in enumerate(up.tolist(), start)
        )
        assert tomography._csv_rows("y", start, up) == expected


class TestParallelCount:
    """run_experiment counts one slice of each stream per CPU; the counts
    equal those of one draw, whatever the CPU count."""

    @pytest.fixture
    def slices(self, monkeypatch):
        """Pretend to have `cpus` CPUs; record (lo, hi, draws per step) per
        slice."""
        calls = []
        real = tomography._up_chunks

        def recording(p, seed, lo, hi):
            steps = []
            calls.append((lo, hi, steps))  # on the call, in slice order

            def drawing():
                for item in real(p, seed, lo, hi):
                    steps.append(len(item[2]))
                    yield item
            return drawing()

        def pretend(cpus):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
            monkeypatch.setattr(tomography, "_up_chunks", recording)
            return calls

        return pretend

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n", [2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK + 7, 10**6 + 3]
    )
    def test_counts_equal_a_single_draw(self, slices, cpus, n):
        calls = slices(cpus)
        threads = threading.active_count()
        report = run_experiment(PURE_TARGET, n, 41)
        probs = (PURE_TARGET.p1, PURE_TARGET.p2, PURE_TARGET.p3)
        ups = [int((_axis_rng(41, i).random(n) < prob).sum())
               for i, prob in enumerate(probs)]
        assert report.p_hat == ProbabilityTriple(*(up / n for up in ups))
        assert report.counts == (n, n, n)
        assert len(calls) == min(cpus, n // _CHUNK)
        assert [lo for lo, _, _ in calls] == [0] + [hi for _, hi, _ in calls[:-1]]
        assert calls[-1][1] == n
        for lo, hi, steps in calls:  # each axis of the slice, a chunk at a time
            assert max(steps) <= _CHUNK and sum(steps) == 3 * (hi - lo)
        assert threading.active_count() == threads  # the workers were joined

    def test_without_affinity_the_cpu_count_decides(self, monkeypatch, slices):
        calls = slices(1)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_experiment(PURE_TARGET, 2 * _CHUNK, 41)
        assert len(calls) == 2

    def test_a_failing_slice_fails_the_call(self, monkeypatch, slices):
        slices(2)
        recording = tomography._up_chunks

        def failing(p, seed, lo, hi):
            for item in recording(p, seed, lo, hi):
                if lo > 0:
                    raise RuntimeError("slice failed")
                yield item

        monkeypatch.setattr(tomography, "_up_chunks", failing)
        with pytest.raises(RuntimeError, match="slice failed"):
            run_experiment(PURE_TARGET, 2 * _CHUNK + 1, 41)


class TestPlainStream:
    """Without numpy loaded, run_experiment draws up to _PLAIN_MAX flips per
    axis from a plain-Python copy of the numpy stream, bit for bit."""

    @given(
        seed=st.one_of(
            st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64,
                             2**128 - 1, 2**128, 2**200]),
            st.integers(0, 2**64), st.integers(0, 2**200),
        ),
        axis=st.integers(0, 2),
        n=st.integers(1, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_raw_equals_numpys(self, seed, axis, n):
        raw = _axis_rng(seed, axis).bit_generator.random_raw(n).tolist()
        assert _plain_raw(seed, axis, n) == raw

    def test_once_numpy_is_loaded_it_draws(self, monkeypatch):
        def plain(*args):
            raise AssertionError("the plain draw ran with numpy loaded")

        monkeypatch.setattr(tomography, "_plain_raw", plain)
        assert "numpy" in sys.modules
        assert run_experiment(PURE_TARGET, 10, 1).counts == (10, 10, 10)

    RUN_PROBE = """
import json, sys
from coinqubit import ProbabilityTriple, run_experiment

p, out = ProbabilityTriple(*json.loads(sys.argv[1])), []
for n in json.loads(sys.argv[2]):
    numpy_before = "numpy" in sys.modules
    out.append([repr(run_experiment(p, n, int(sys.argv[3]))), numpy_before])
print(json.dumps(out))
"""

    @pytest.mark.parametrize("seed, tie", [(3, False), (2**64 + 5, True)])
    def test_counts_equal_numpys_on_both_sides_of_the_threshold(self, seed, tie):
        ns = [_PLAIN_MAX - 1, _PLAIN_MAX, _PLAIN_MAX + 1]
        coins = [PURE_TARGET.p1, PURE_TARGET.p2, PURE_TARGET.p3]
        if tie:  # x's first draw equals its coin and counts as down, as in `< prob`
            coins = [_axis_rng(seed, 0).random(1)[0].item(), 0.5, 0.5]
        proc = subprocess.run(
            [sys.executable, "-c", self.RUN_PROBE, json.dumps(coins),
             json.dumps(ns), str(seed)],
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
            capture_output=True, encoding="utf-8", timeout=60, check=True,
        )
        runs = json.loads(proc.stdout)
        assert [numpy_before for _, numpy_before in runs] == [False, False, False]
        for n, (fresh, _) in zip(ns, runs):
            ups = [int(np.count_nonzero(_axis_rng(seed, i).random(n) < prob))
                   for i, prob in enumerate(coins)]
            report = run_experiment(ProbabilityTriple(*coins), n, seed)  # with numpy
            assert report.p_hat == ProbabilityTriple(*(up / n for up in ups))
            assert fresh == repr(report)


class TestDrawArguments:
    """One check of n_per_axis and seed for every draw: an int that is not a
    bool, at least 1 and at least 0."""

    DRAWS = {
        "run_experiment": run_experiment,
        "sample_outcomes": sample_outcomes,
        "sample_flips": sample_flips,  # raises on the call, before any flip is read
    }

    @pytest.mark.parametrize("draw", DRAWS.values(), ids=DRAWS.keys())
    @pytest.mark.parametrize("n, seed, error, message", [
        (2.5, 1, TypeError, "n_per_axis must be an int, got float"),
        ("10", 1, TypeError, "n_per_axis must be an int, got str"),
        (True, 1, TypeError, "n_per_axis must be an int, got bool"),
        (0, 1, ValueError, "n_per_axis must be at least 1, got 0"),
        (-3, 1, ValueError, "n_per_axis must be at least 1, got -3"),
        (10, None, TypeError, "seed must be an int, got NoneType"),
        (10, True, TypeError, "seed must be an int, got bool"),
        (10, 1.0, TypeError, "seed must be an int, got float"),
        (10, -1, ValueError, "seed must be at least 0, got -1"),
    ])
    def test_rejects(self, draw, n, seed, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            draw(PURE_TARGET, n, seed)

    @pytest.mark.parametrize("draw", [*DRAWS, "write_flips"])
    def test_each_draw_checks_once(self, monkeypatch, tmp_path, draw):
        # two CPUs and three chunks per axis: run_experiment counts two slices
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        checks = []
        real = tomography._check_draw

        def counting(*args):
            checks.append(args)
            return real(*args)

        monkeypatch.setattr(tomography, "_check_draw", counting)
        draws = {**self.DRAWS, "write_flips": lambda p, n, seed: write_flips(
            p, n, seed, str(tmp_path / "flips.csv"))}
        result = draws[draw](PURE_TARGET, 2 * _CHUNK + 1, 4)
        if draw == "sample_flips":
            estimate(result)  # draws every flip
        assert len(checks) == 1

    @pytest.mark.parametrize("n, seed", [(0, None), (True, -1)])
    def test_the_target_state_is_checked_first(self, n, seed):
        with pytest.raises(ClassicalStateError):
            run_experiment(ProbabilityTriple(1, 1, 1), n, seed)

    @pytest.mark.parametrize("draw", DRAWS.values(), ids=DRAWS.keys())
    def test_a_classical_target_raises_on_the_call(self, draw):
        with pytest.raises(ClassicalStateError):
            draw(ProbabilityTriple(1, 1, 1), 5, 1)

    def test_numpy_integers_are_ints(self):
        report = run_experiment(PURE_TARGET, np.int64(500), np.uint64(2**63 + 1))
        assert report == run_experiment(PURE_TARGET, 500, 2**63 + 1)
        assert type(report.seed) is int and type(report.counts[0]) is int


class TestFlipRecord:
    """The public contract of a flip record, and the records sample_flips
    builds without going through the constructor."""

    @pytest.mark.parametrize("fields, error, message", [
        (("w", "up", 0), ValueError, "axis must be one of"),
        (("x", "side", 0), ValueError, "outcome must be one of"),
        (("x", "up", -1), ValueError, "trial index must be nonnegative"),
        (("x", "up", 1.5), TypeError, "trial must be an int, got float"),
        (("x", "up", "3"), TypeError, "trial must be an int, got str"),
        (("x", "up", True), TypeError, "trial must be an int, got bool"),
    ])
    def test_constructor_rejects_bad_fields(self, fields, error, message):
        with pytest.raises(error, match=message):
            FlipRecord(*fields)

    def test_fields_are_read_only(self):
        record = FlipRecord("x", "up", 0)
        with pytest.raises(AttributeError):
            record.axis = "y"

    def test_repr(self):
        record = FlipRecord("y", "down", 7)
        assert repr(record) == "FlipRecord(axis='y', outcome='down', trial=7)"

    def test_equal_records_hash_equal(self):
        first, second = FlipRecord("z", "up", 3), FlipRecord("z", "up", 3)
        assert first == second and hash(first) == hash(second)
        assert first != FlipRecord("z", "down", 3)

    def test_pickle_round_trip(self):
        record = FlipRecord("y", "down", 12)
        assert pickle.loads(pickle.dumps(record)) == record

    def test_tuple_equality_and_unpacking(self):
        record = FlipRecord("x", "down", 4)
        assert record == ("x", "down", 4)
        axis, outcome, trial = record
        assert (axis, outcome, trial) == (record.axis, record.outcome, record.trial)

    @pytest.mark.parametrize("change, error", [
        ({"axis": "w"}, ValueError), ({"outcome": "side"}, ValueError),
        ({"trial": -1}, ValueError), ({"trial": 1.5}, TypeError),
        ({"trial": "3"}, TypeError),
    ])
    def test_replace_validates(self, change, error):
        with pytest.raises(error):
            FlipRecord("x", "up", 0)._replace(**change)

    def test_sample_flips_records_pass_the_constructor(self):
        flips = list(sample_flips(PURE_TARGET, _CHUNK + 1, 13))
        assert len(flips) == 3 * (_CHUNK + 1)
        for record in flips:
            assert type(record) is FlipRecord
            assert record == FlipRecord(record.axis, record.outcome, record.trial)

    def test_sample_flips_skips_the_constructor(self, monkeypatch):
        calls = []

        class CountingRecord(FlipRecord):
            __slots__ = ()

            def __new__(cls, *fields):
                calls.append(fields)
                return super().__new__(cls, *fields)

        monkeypatch.setattr(tomography, "FlipRecord", CountingRecord)
        flips = list(sample_flips(PURE_TARGET, 10, 13))
        assert len(flips) == 30 and calls == []


def _per_flip_stream(p, n_per_axis, seed):
    """sample_flips as it was written with one generator step per flip,
    before it built each chunk's records with map."""
    return (
        tuple.__new__(FlipRecord, (AXES[i], "up" if up else "down", trial))
        for i, start, chunk in _up_chunks(p, seed, 0, n_per_axis)
        for trial, up in enumerate(chunk.tolist(), start)
    )


class TestRecordStream:
    """sample_flips builds each chunk's records in C: the same records as
    one generator step per flip, drawn one chunk at a time."""

    @pytest.mark.parametrize("seed", [0, 9, 2**64 + 5])
    @pytest.mark.parametrize(
        "n", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_records_equal_the_per_flip_stream(self, n, seed):
        pairs = itertools.zip_longest(
            sample_flips(PURE_TARGET, n, seed), _per_flip_stream(PURE_TARGET, n, seed))
        assert [(got, want) for got, want in pairs
                if type(got) is not FlipRecord or got != want] == []

    def test_the_first_record_draws_one_chunk(self, monkeypatch):
        first = next(_per_flip_stream(PURE_TARGET, 10**9, 0))
        drawn = []

        def counting(*args):
            for item in _up_chunks(*args):
                drawn.append(item[:2])
                yield item

        monkeypatch.setattr(tomography, "_up_chunks", counting)
        flips = sample_flips(PURE_TARGET, 10**9, 0)
        assert drawn == []
        assert next(flips) == first and drawn == [(0, 0)]
        assert next(flips).trial == 1 and drawn == [(0, 0)]


class TestReconstruction:
    def test_pure_target_purity(self):
        report = run_experiment(PURE_TARGET, 10**6, 2024)
        rho, _ = reconstruct(report)
        arr = rho.as_array()
        assert abs(float(np.trace(arr @ arr).real) - 1.0) < 0.01

    def test_out_of_ball_estimate_is_reported(self):
        # a certain axis plus sampling noise lands just outside the ball
        report = run_experiment(ProbabilityTriple(0.5, 0.5, 1.0), 1000, 11)
        rho, verdict = reconstruct(report)
        assert verdict == report.p_hat.classify()
        assert rho.is_nonnegative == (verdict != "classical")

    def test_unbiasedness_probe(self):
        p = ProbabilityTriple(0.62, 0.55, 0.58)
        n, seeds = 2000, 100
        means = [0.0, 0.0, 0.0]
        for seed in range(seeds):
            report = run_experiment(p, n, seed)
            for i, value in enumerate(report.p_hat.vec()):
                means[i] += value / seeds
        for mean, target in zip(means, p.vec()):
            stderr = math.sqrt(target * (1 - target) / (n * seeds))
            assert abs(mean - target) < 5.0 * stderr
