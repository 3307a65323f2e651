"""Monte-Carlo simulation of the three-coin measurement scheme.

Each axis (x, y, z) is an independent biased coin; flips are drawn from a
target state's triple, the triple is re-estimated from frequencies and the
matrix is reconstructed from the estimate.  Sampling noise can push the
estimate outside the correlation ball; that verdict is reported, never
projected away.

Randomness comes from numpy's PCG64 seeded through a SeedSequence built
from (seed, axis index), so the three per-axis streams are independent and
every run is reproducible from the single integer seed.  A flip is one raw
64-bit output x, up where x <= ``_top(prob)``: exactly where
``Generator.random``'s double (x >> 11) * 2**-53 lies below the coin, with
no double built.  Each stream is drawn in fixed chunks, which give the same
bits as one draw, so memory does not grow with the number of flips.
``run_experiment`` counts up to one slice of each stream per CPU in
parallel, entered with ``PCG64.advance`` (one output per flip): its bits do
not depend on the CPU count, and each slice draws a whole chunk per step;
before numpy is loaded, it draws up to ``_PLAIN_MAX`` flips per axis from a
plain-Python copy of the same streams, bit for bit.  ``sample_flips``,
``sample_outcomes`` and ``write_flips`` stay serial and on numpy;
``sample_flips`` builds each chunk's records in C, ``map`` calling
``tuple.__new__`` on zipped rows, and ``estimate`` counts each run of one
axis in C, so neither runs a Python frame per flip.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import sys
import threading
from collections import namedtuple

from .errors import InsufficientDataError
from .states import (
    DensityMatrix2,
    ProbabilityTriple,
    _Frozen,
    _require_quantum,
    _shown,
    prob_to_density,
)

# numpy is imported inside the functions that build arrays, so the
# scalar API and the CLI start without loading it.
TYPE_CHECKING = False  # typing's constant, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    import numpy as np

AXES = ("x", "y", "z")
OUTCOMES = ("up", "down")


_AXIS_OF = operator.attrgetter("axis")
_OUTCOME_OF = operator.attrgetter("outcome")


def _check_field(name: str, value, allowed: tuple[str, ...]) -> None:
    """A ValueError naming the field `name` unless `value` is in `allowed`.
    A value that is no str is refused before it is compared, so one whose
    == gives no bool (a numpy array's) is refused by name too."""
    if not isinstance(value, str):
        raise ValueError(
            f"{name} must be a str in {allowed}, got {type(value).__name__}"
        )
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


class FlipRecord(namedtuple("FlipRecord", "axis outcome trial")):
    """One coin flip: which axis, which face, which trial.

    An immutable named tuple, so a record also equals the plain tuple
    ``(axis, outcome, trial)`` and unpacks like one.  The constructor, and
    ``_make``/``_replace``, which go through it, check every field.
    """

    __slots__ = ()

    def __new__(cls, axis: str, outcome: str, trial: int) -> FlipRecord:
        _check_field("axis", axis, AXES)
        _check_field("outcome", outcome, OUTCOMES)
        trial = _int("trial", trial)
        if trial < 0:
            raise ValueError(f"trial index must be nonnegative, got {_shown(trial)}")
        return tuple.__new__(cls, (axis, outcome, trial))

    @classmethod
    def _make(cls, iterable: Iterable) -> FlipRecord:
        return cls(*iterable)


class EstimateReport(_Frozen):
    """Frequency estimate of a coin triple with per-axis error bars."""

    __slots__ = ("p_hat", "counts", "std_errors", "seed")

    def __init__(
        self, p_hat: ProbabilityTriple, counts: tuple[int, int, int],
        std_errors: tuple[float, float, float], seed: int | None,
    ) -> None:
        set_p_hat, set_counts, set_std_errors, set_seed = self._setters
        set_p_hat(self, p_hat)
        set_counts(self, counts)
        set_std_errors(self, std_errors)
        set_seed(self, seed)


_CHUNK = 1 << 16  # draws per chunk: 512 KiB of uint64, one chunk per slice
_PLAIN_MAX = 4096  # flips per axis that run_experiment may draw without numpy
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _axis_rng(seed: int, axis_index: int) -> np.random.Generator:
    import numpy as np

    seq = np.random.SeedSequence(entropy=seed, spawn_key=(axis_index,))
    return np.random.Generator(np.random.PCG64(seq))


def _hasher(h: int, mult: int):
    """SeedSequence's 32-bit hash from running constant h, multiplied by mult."""
    def hash32(value: int) -> int:
        nonlocal h
        value, h = value ^ h, h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16
    return hash32


def _plain_raw(seed: int, axis_index: int, n: int) -> list[int]:
    """``_axis_rng(seed, axis_index).bit_generator.random_raw(n)`` bit for
    bit, in plain Python: numpy's SeedSequence pool and generate_state(4,
    uint64), PCG64's seeding, its LCG step and its XSL-RR output."""
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [axis_index]  # padded as for a spawn key
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in itertools.product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(w))
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    s0, s1, i0, i1 = (lo | hi << 32 for lo, hi in zip(out[::2], out[1::2]))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    raw = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64  # XSL, then rotate right by state >> 122
        raw.append((x << 64 | x) >> (state >> 122) & _M64)
    return raw


def _top(prob: float) -> int:
    """Largest 64-bit output x whose double (x >> 11) * 2**-53 lies below prob
    (-1 for none): k * 2**-53 < prob exactly when k < ceil(prob * 2**53)."""
    return (math.ceil(prob * 2.0**53) << 11) - 1


def _int(name: str, value) -> int:
    """`value` as an int, a numpy integer included; anything else, a bool
    too, is a TypeError naming the field `name`."""
    try:  # operator.index takes a bool for an int
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}") from None


def _check_draw(p: ProbabilityTriple, n_per_axis: int, seed: int) -> list[int]:
    """p checked quantum; [n_per_axis, seed] checked ints >= 1 and >= 0."""
    _require_quantum(p, "target state")
    checked = []
    for name, value, low in (("n_per_axis", n_per_axis, 1), ("seed", seed, 0)):
        value = _int(name, value)
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {_shown(value)}")
        checked.append(value)
    return checked


def _up_chunks(
    p: ProbabilityTriple, seed: int, lo: int, hi: int,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """(axis index, first trial, "up" booleans) per chunk of trials [lo, hi)
    of each axis, axis-major, from inputs that passed ``_check_draw``: a
    trial is up where ``Generator.random`` would draw below the coin."""
    for i, prob in enumerate((p.p1, p.p2, p.p3)):
        bits = _axis_rng(seed, i).bit_generator
        bits.advance(lo)  # one 64-bit output per flip
        top = _top(prob)  # -1, where no output is up, compares as such (NEP 50)
        for start in range(lo, hi, _CHUNK):
            yield i, start, bits.random_raw(min(_CHUNK, hi - start)) <= top


def _fold(ups, totals, seed: int | None) -> EstimateReport:
    """Per-axis up counts and flip totals to frequencies with error bars."""
    missing = [axis for axis, total in zip(AXES, totals) if total == 0]
    if missing:
        raise InsufficientDataError(f"no flips recorded for axis/axes {missing}")
    p_hat = [up / total for up, total in zip(ups, totals)]
    errors = tuple(math.sqrt(v * (1.0 - v) / n) for v, n in zip(p_hat, totals))
    return EstimateReport(ProbabilityTriple(*p_hat), tuple(totals), errors, seed)


def sample_outcomes(
    p: ProbabilityTriple, n_per_axis: int, seed: int
) -> dict[str, np.ndarray]:
    """Boolean "up" arrays per axis, joined from the same chunked streams the
    other samplers read; a public helper that no other function here calls."""
    n_per_axis, seed = _check_draw(p, n_per_axis, seed)
    import numpy as np

    parts = ([], [], [])
    for i, _, up in _up_chunks(p, seed, 0, n_per_axis):
        parts[i].append(up)
    return {axis: np.concatenate(part) for axis, part in zip(AXES, parts)}


def sample_flips(
    p: ProbabilityTriple, n_per_axis: int, seed: int
) -> Iterator[FlipRecord]:
    """Flips axis-major: all x trials, then y, then z.  The inputs are
    checked on the call, the flips drawn as they are read."""
    n_per_axis, seed = _check_draw(p, n_per_axis, seed)
    import numpy as np

    # valid by construction, so FlipRecord's checks are skipped: map calls
    # tuple.__new__(FlipRecord, row) in C, with no Python frame per flip
    faces = np.array(("down", "up"), dtype=object)
    return itertools.chain.from_iterable(
        map(tuple.__new__, itertools.repeat(FlipRecord), zip(
            itertools.repeat(AXES[i]), faces[up.view(np.uint8)].tolist(),
            range(start, start + len(up))))
        for i, start, up in _up_chunks(p, seed, 0, n_per_axis)
    )


def estimate(
    flips: Iterable[FlipRecord], seed: int | None = None
) -> EstimateReport:
    """Fold a flip stream into frequency estimates with standard errors.
    The seed the report records is None or an int, checked first.  Records
    are read lazily, by attribute, and folded one run of equal axes at a
    time: ``groupby`` splits the runs, and ``list.count`` counts each
    slice of at most ``_CHUNK`` outcomes in C, with no Python frame per
    record; records in any order give the same report, in shorter runs.
    Each run's axis and outcomes are checked as ``FlipRecord``'s
    constructor checks them, with the same ValueError, also where counting
    a slice raises."""
    if seed is not None:
        seed = _int("seed", seed)
    ups = dict.fromkeys(AXES, 0)
    totals = dict.fromkeys(AXES, 0)
    for axis, run in itertools.groupby(flips, _AXIS_OF):
        _check_field("axis", axis, AXES)
        outcomes = map(_OUTCOME_OF, run)
        while part := list(itertools.islice(outcomes, _CHUNK)):
            try:
                up = part.count("up")
                counted = up + part.count("down") == len(part)
            except Exception:  # an outcome whose == gives no bool
                counted = False
            if not counted:  # the first outcome of neither kind raises
                for outcome in part:
                    _check_field("outcome", outcome, OUTCOMES)
            totals[axis] += len(part)
            ups[axis] += up
    return _fold(ups.values(), totals.values(), seed)


def _csv_rows(axis: str, start: int, up: np.ndarray) -> str:
    """CRLF rows ``trial,axis,outcome`` of trials start, start + 1, ... with
    "up" booleans `up`, built in one byte buffer whose rows are padded with
    NUL to the last trial's width; NUL never occurs in the text."""
    import numpy as np

    width = len(str(start + len(up) - 1))
    cells = np.empty((len(up), width + 9), np.uint8)
    t = np.arange(start, start + len(up))
    for k in range(width - 1, -1, -1):
        q = t // 10
        cells[:, k] = t - q * 10 + 48
        t = q
    for j in range(len(str(start)), width):  # trials below 10**j: one digit short
        cells[: 10**j - start, width - 1 - j] = 0
    cells[:, width] = ord(",")
    tails = np.frombuffer(f"{axis},down\r\n{axis},up\r\n\0\0".encode(), np.uint64)
    cells[:, width + 1:].view(np.uint64)[:, 0] = tails[up.view(np.uint8)]
    return cells.tobytes().replace(b"\0", b"").decode("ascii")


def write_flips(
    p: ProbabilityTriple, n_per_axis: int, seed: int, path: str
) -> EstimateReport:
    """Write the ``sample_flips`` stream to the CSV file `path` (header
    ``trial,axis,outcome``, CRLF rows) and return its estimate, which
    equals ``run_experiment``'s; each flip is drawn once, one chunk in
    memory at a time.  The inputs are checked before the file is created."""
    n_per_axis, seed = _check_draw(p, n_per_axis, seed)
    import numpy as np

    ups = [0, 0, 0]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("trial,axis,outcome\r\n")
        for i, start, up in _up_chunks(p, seed, 0, n_per_axis):
            ups[i] += int(np.count_nonzero(up))
            handle.write(_csv_rows(AXES[i], start, up))
    return _fold(ups, (n_per_axis,) * 3, seed)


def run_experiment(
    p: ProbabilityTriple, n_per_axis: int, seed: int
) -> EstimateReport:
    """Sample and estimate in one pass, counting up to one slice of each
    stream per CPU on threads, each slice one chunk in memory at a time; in
    plain Python up to _PLAIN_MAX flips per axis while numpy is not loaded."""
    n_per_axis, seed = _check_draw(p, n_per_axis, seed)
    if n_per_axis <= _PLAIN_MAX and "numpy" not in sys.modules:
        ups = [sum(map(_top(prob).__ge__, _plain_raw(seed, i, n_per_axis)))
               for i, prob in enumerate((p.p1, p.p2, p.p3))]
        return _fold(ups, (n_per_axis,) * 3, seed)
    import numpy as np

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    parts = max(1, min(cpus, n_per_axis // _CHUNK))
    ends = [n_per_axis * k // parts for k in range(parts + 1)]
    slices = [_up_chunks(p, seed, lo, hi) for lo, hi in zip(ends, ends[1:])]
    counts = [None] * parts

    def count(k: int) -> None:
        ups = counts[k] = [0, 0, 0]
        try:
            for i, _, up in slices[k]:
                ups[i] += int(np.count_nonzero(up))
                del up  # free this chunk's booleans before the next draw
        except Exception as exc:  # raised below, after every join
            counts[k] = exc

    # plain threads: concurrent.futures would import logging (about 6 ms)
    workers = [threading.Thread(target=count, args=(k,)) for k in range(1, parts)]
    for worker in workers:
        worker.start()
    count(0)  # numpy releases the GIL
    for worker in workers:
        worker.join()
    for result in counts:
        if isinstance(result, Exception):
            raise result
    ups = [sum(axis) for axis in zip(*counts)]
    return _fold(ups, (n_per_axis,) * 3, seed)


def reconstruct(report: EstimateReport) -> tuple[DensityMatrix2, str]:
    """Matrix from the estimated triple plus its ball verdict.

    The verdict says whether sampling noise pushed the estimate outside
    the correlation ball ('classical') or left it a valid state.
    """
    return prob_to_density(report.p_hat), report.p_hat.classify()
