"""The CLI contract over the benchmark's request pool, pinned as SHA-256 digests.

``perfbench/gen.py``'s ``cli_pool`` gives 120 requests per seed over all ten
subcommands: about a quarter pass their states as JSON files and about a
tenth end in a typed exit 2.  Each request runs in process through
``coinqubit.cli.main``; its argv, exit code, stdout and stderr are hashed,
with the temporary directory written as ``{dir}``.  There is one digest per
seed, 601 to 610, in one table for the Pythons before 3.12 and one for 3.12
on, since gen.py's states differ by an ulp here and there between the two.
A change that moves one byte of one output changes a digest here.

Regenerate the digests only when a change of the CLI's output is intended:

    PYTHONPATH=src python tests/test_cli_contract.py
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile
import types

from coinqubit.cli import SEED_ENV_VAR, main

GEN_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
SEEDS = range(601, 611)
SUM_KEY = "3.12" if sys.version_info >= (3, 12) else "3.10"
DIGESTS = {
    # Python 3.12 sums floats with compensated summation, so gen.py's
    # sum() draws a few states one ulp apart there
    "3.10": {
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
    },
    "3.12": {
        601: "33bbaee1cf7c762ec4e55cc01dc61e0d849e44efc785a0bbc582df548869f30b",
        602: "b170d54dd08f86e379490cc03aef09c04488c84566ef2b7804d43dfa46fcc4de",
        603: "ce594b09c90ac30ed8e54f740e06be9521cf39e684409d514a5dcb6f3e5127ed",
        604: "ccdbb7030c953a4bf30b02774a84bc3e0968c615d3da996785c6861c9677de01",
        605: "8bc6c6d42d4980d7032fa9ad310c242dcc8eb4c1aa49ce87fc36882080bc68e0",
        606: "ba06973525e584708a89202319ce056d91aaeaa70e810af570ad2e72a7dbd7e7",
        607: "38d95ad561b5df566f04f950a55e2513790107c1b4a894b6700753821e81ee9a",
        608: "19d253816dbf9f6a6a2b60e9a94d32f18d47a911f973d80b9daee7f269c47c82",
        609: "73fe9576bc0b51a5ef9bcb3b5b683f7475fcccedaa546d32d6337dd57a433ce4",
        610: "239aa2ef7d39b4644a70017c012e94cee27a5f1c32fb1f14e82bf81c3ebd2f46",
    },
}


def _load_gen() -> types.ModuleType:
    """perfbench/gen.py, executed from its text so that no bytecode cache
    is written next to it."""
    module = types.ModuleType("perfbench_gen")
    module.__file__ = str(GEN_PATH)
    code = compile(GEN_PATH.read_text(encoding="utf-8"), str(GEN_PATH), "exec")
    exec(code, module.__dict__)  # noqa: S102 - the repository's own file
    return module


def _digest(gen, seed: int, directory: pathlib.Path) -> str:
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
    return digest.hexdigest()


def _digests(directory: pathlib.Path) -> dict:
    gen = _load_gen()
    return {seed: _digest(gen, seed, directory) for seed in SEEDS}


def test_cli_pool_matches_its_digests(monkeypatch, tmp_path):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert _digests(tmp_path) == DIGESTS[SUM_KEY]


if __name__ == "__main__":
    os.environ.pop(SEED_ENV_VAR, None)
    print(f'    "{SUM_KEY}": {{')
    with tempfile.TemporaryDirectory() as directory:
        for seed, value in _digests(pathlib.Path(directory)).items():
            print(f'        {seed}: "{value}",')
    print("    },")
