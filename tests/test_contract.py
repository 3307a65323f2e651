"""The behaviour contract, pinned as SHA-256 digests in one table.

Two things are hashed.

The CLI over the benchmark's request pool: ``perfbench/gen.py``'s
``cli_pool`` gives 120 requests per seed over all ten subcommands, about a
quarter with their states in JSON files and about a tenth ending in a typed
exit 2.  Each request runs in process through ``coinqubit.cli.main``; its
argv, exit code, stdout and stderr are hashed, with the temporary directory
written as ``{dir}``.  There is one digest per seed, 601 to 610.  gen.py is
run with a left-fold ``sum``, as Pythons before 3.12 sum floats, so every
Python draws the same requests and checks the same bytes.

The seeded flip streams, three views of the same per-axis streams: the repr
of each ``run_experiment`` report (counted on 1, 2 and 3 pretend CPUs), the
records ``sample_flips`` yields and the CSV bytes ``write_flips`` writes.
The sizes straddle the plain-draw limit (4096 flips per axis) and the chunk
size (65536), and the largest splits into several slices.  Only this group
needs numpy.

A change that moves one byte of one output, or one flip of one stream,
changes a digest here.  Regenerate the table only when such a change is
intended:

    PYTHONPATH=src python tests/test_contract.py
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import operator
import os
import pathlib
import sys
import tempfile
import types

import pytest

from coinqubit import ProbabilityTriple, run_experiment, sample_flips, write_flips
from coinqubit.cli import SEED_ENV_VAR, main

GEN_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
SEEDS = range(601, 611)
SIZES = (1, 4096, 4097, 65537, 131073, 10**6 + 3)
SEED = 2018
TARGETS = (
    ProbabilityTriple(0.6, 0.5, 0.7),
    ProbabilityTriple(0.5, 0.5, 1.0),  # a certain coin: every z flip is up
    ProbabilityTriple(0.5, 0.5, 0.0),  # an impossible one: none is
)
# the one-sided coins give constant streams, so their CSV stops at 131073
CSV_CASES = [(TARGETS[0], n) for n in SIZES] + [
    (p, n) for p in TARGETS[1:] for n in SIZES[:-1]]
DIGESTS = {
    601: "c4396943574debc019f096b8b09a0758da9efcfacb728d0a0c36498023368af4",
    602: "2458d200cfccaab079321463a9355ddd84a71991ce71f7a35921b9a71156deed",
    603: "4acdde66aed2764c6d698328655adcae09bcd6e77491f8c0b2352614da2c61ce",
    604: "390d03f3c8d07c017ad617ad7a305fbd7c0df8e54c2713426f1ee0daf96ef28d",
    605: "e7f0dc0a6cdfcca71f0b6db199051bde6a6edc8183fae8250c61331758867df4",
    606: "3849fe6724e91e0486b44bf16535ccc76323e4a49d2e152d3ed50e1a4f87c888",
    607: "4931c1e73ed003152ba142bfb3b9692ab853bdc5f83682f4bb801a100053e3a5",
    608: "dbc655aac87d8cd94de64d9d62d99ee5de885e9dfb82c513fbc5146b1e9b9c07",
    609: "405e5ee861137996d42682b339fe3a7c0d52901c095abfc28e8105080ed91603",
    610: "f9860e4d677c3e636732f4dbeb797a090ed1a7a7a7c907140cde77a8fcee83b7",
    "run_experiment": "acd6825f5a444d0f7e91b737db2afd17d251ddf17f2a48b931ba056c05ede732",
    "sample_flips": "586cfcfc3616251556c9f59fd793b9be60e6fb38db2d58300073f4cc0be2bd62",
    "write_flips": "0bd74b5542d71ea28b7b1e225ed7e31e1910a04e67a2687945df6d5d9c08c31f",
}


def _load_gen() -> types.ModuleType:
    """perfbench/gen.py, executed from its text so that no bytecode cache
    is written next to it.  Its ``sum`` is a left fold: from 3.12 on the
    builtin sums floats with compensated summation, which would draw some
    states an ulp apart."""
    module = types.ModuleType("perfbench_gen")
    module.__file__ = str(GEN_PATH)
    module.sum = lambda xs, start=0: functools.reduce(operator.add, xs, start)
    code = compile(GEN_PATH.read_text(encoding="utf-8"), str(GEN_PATH), "exec")
    exec(code, module.__dict__)  # noqa: S102 - the repository's own file
    return module


def _cli_digests(directory: pathlib.Path) -> dict:
    gen = _load_gen()
    digests = {}
    for seed in SEEDS:
        digest = hashlib.sha256()
        for req in gen.cli_pool(seed):
            for name, text in gen.cli_files(req).items():
                (directory / name).write_text(text, encoding="utf-8")
            argv = gen.cli_argv(req, str(directory))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            record = repr((argv, code, out.getvalue(), err.getvalue()))
            digest.update(record.replace(str(directory), "{dir}").encode() + b"\n")
        digests[seed] = digest.hexdigest()
    return digests


def _run_experiment_digest(cpus_patch) -> str:
    digest = hashlib.sha256()
    for cpus in (1, 2, 3):
        cpus_patch(cpus)
        for p, n in itertools.product(TARGETS, SIZES):
            digest.update(repr(run_experiment(p, n, SEED)).encode() + b"\n")
    return digest.hexdigest()


def _sample_flips_digest() -> str:
    # records cost about 1 us each to build and print, so the largest size
    # and the one-sided coins are left to the CSV, which holds the same stream
    digest = hashlib.sha256()
    for n in SIZES[:-1]:
        flips = sample_flips(TARGETS[0], n, SEED)
        while batch := list(itertools.islice(flips, 1 << 16)):
            digest.update(repr(batch).encode())  # FlipRecord(axis=..., ...)
    return digest.hexdigest()


def _write_flips_digest(directory: pathlib.Path) -> str:
    digest = hashlib.sha256()
    path = directory / "flips.csv"
    for p, n in CSV_CASES:
        report = write_flips(p, n, SEED, str(path))
        digest.update(path.read_bytes())
        digest.update(repr(report).encode() + b"\n")
    return digest.hexdigest()


def _stream_digests(cpus_patch, directory: pathlib.Path) -> dict:
    return {
        "run_experiment": _run_experiment_digest(cpus_patch),
        "sample_flips": _sample_flips_digest(),
        "write_flips": _write_flips_digest(directory),
    }


def _pinned(digests: dict) -> dict:
    return {key: DIGESTS[key] for key in digests}


def test_cli_pool_matches_its_digests(monkeypatch, tmp_path):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    # sample takes the plain draw only while numpy is not loaded, as in a
    # fresh CLI process; other tests may have loaded it in this one
    monkeypatch.delitem(sys.modules, "numpy", raising=False)
    digests = _cli_digests(tmp_path)
    assert "numpy" not in sys.modules
    assert digests == _pinned(digests)


@pytest.mark.needs_numpy
def test_flip_streams_match_their_digests(monkeypatch, tmp_path):
    def pretend(cpus):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    digests = _stream_digests(pretend, tmp_path)
    assert digests == _pinned(digests)


if __name__ == "__main__":
    def pretend(cpus):
        os.sched_getaffinity = lambda pid: set(range(cpus))

    os.environ.pop(SEED_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as name:
        directory = pathlib.Path(name)
        digests = {**_cli_digests(directory), **_stream_digests(pretend, directory)}
    for key, value in digests.items():
        print(f'    {json.dumps(key)}: "{value}",')
