"""The package surface: lazy imports and the contract of the value types."""

import ast
import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from coinqubit import (
    CoinObservable,
    MalevichTriada,
    ProbabilityTriple,
    SuperpositionWeights,
    prob_to_density,
    prob_to_spinor,
    run_experiment,
    superpose_general,
    triada_sides,
)

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

_PLUS = (1, 0.5, 0.5)
_W = (0.5, 1, 0.5)

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


IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("coinqubit.") or m == "dataclasses")

import coinqubit
report = {"import": loaded(),
          "dir_has_all": set(coinqubit.__all__) <= set(dir(coinqubit))}
try:
    coinqubit.nope
except AttributeError as exc:
    report["nope"] = str(exc)
from coinqubit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check", "--p1", "1", "--p2", "0.5", "--p3", "0.5"]) == 0
report["check"] = loaded()
namespace = {}
exec("from coinqubit import *", namespace)
report["star_missing"] = [n for n in coinqubit.__all__ if n not in namespace]
report["star_is_attr"] = all(namespace[n] is getattr(coinqubit, n)
                             for n in coinqubit.__all__)
print(json.dumps(report))
"""


def test_submodules_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == {
        "import": [],
        "dir_has_all": True,
        "nope": "module 'coinqubit' has no attribute 'nope'",
        "check": ["coinqubit.cli", "coinqubit.errors", "coinqubit.states"],
        "star_missing": [],
        "star_is_attr": True,
    }


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
