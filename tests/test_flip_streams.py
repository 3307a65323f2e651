"""The seeded flip streams, pinned bit for bit as SHA-256 digests.

Three views of the same per-axis streams are hashed: the repr of each
``run_experiment`` report (counted on 1, 2 and 3 pretend CPUs), the records
``sample_flips`` yields and the CSV bytes ``write_flips`` writes.  The sizes
straddle the plain-draw limit (4096 flips per axis) and the chunk size
(65536), and the largest splits into several slices.  A change that moves
one flip of one stream changes a digest here.

Regenerate the digests only when a change of the streams is intended:

    PYTHONPATH=src python tests/test_flip_streams.py
"""

import hashlib
import itertools
import os
import tempfile

import pytest

from coinqubit import ProbabilityTriple, run_experiment, sample_flips, write_flips

pytestmark = pytest.mark.needs_numpy

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
    "run_experiment": "acd6825f5a444d0f7e91b737db2afd17d251ddf17f2a48b931ba056c05ede732",
    "sample_flips": "586cfcfc3616251556c9f59fd793b9be60e6fb38db2d58300073f4cc0be2bd62",
    "write_flips": "0bd74b5542d71ea28b7b1e225ed7e31e1910a04e67a2687945df6d5d9c08c31f",
}


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


def _write_flips_digest(directory: str) -> str:
    digest = hashlib.sha256()
    path = os.path.join(directory, "flips.csv")
    for p, n in CSV_CASES:
        report = write_flips(p, n, SEED, path)
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(repr(report).encode() + b"\n")
    return digest.hexdigest()


def _digests(cpus_patch, directory: str) -> dict:
    return {
        "run_experiment": _run_experiment_digest(cpus_patch),
        "sample_flips": _sample_flips_digest(),
        "write_flips": _write_flips_digest(directory),
    }


def test_streams_match_their_digests(monkeypatch, tmp_path):
    def pretend(cpus):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    assert _digests(pretend, str(tmp_path)) == DIGESTS


if __name__ == "__main__":
    def pretend(cpus):
        os.sched_getaffinity = lambda pid: set(range(cpus))

    with tempfile.TemporaryDirectory() as directory:
        for name, value in _digests(pretend, directory).items():
            print(f'    "{name}": "{value}",')
