import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET
from json.encoder import py_encode_basestring_ascii

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coinqubit import (
    CoinObservable,
    ProbabilityTriple,
    SuperpositionWeights,
    classical_means,
    fidelity,
    purity,
    quantum_mean,
    run_experiment,
    superpose_general,
    triada_sides,
)
from coinqubit.cli import _COMMANDS, _flags, _quote, _read, main

DATA_DIR = pathlib.Path(__file__).parent / "data"
SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


BAD_FILE_CONTENTS = {
    "empty": "",
    "not-json": "p1=0.5",
    "list": "[0.5, 0.5, 0.5]",
    "deeply-nested": "[" * 100_000,
    "string-field": json.dumps(
        {"kind": "coin-state", "p1": "abc", "p2": 0.5, "p3": 0.5,
         "x": "abc", "y": 0, "z1": 0, "z2": 0}
    ),
    "null-field": json.dumps(
        {"kind": "coin-state", "p1": None, "p2": 0.5, "p3": 0.5,
         "x": None, "y": 0, "z1": 0, "z2": 0}
    ),
    "huge-int-field": json.dumps(
        {"kind": "coin-state", "p1": 10 ** 400, "p2": 0.5, "p3": 0.5,
         "x": 10 ** 400, "y": 0, "z1": 0, "z2": 0}
    ),
    "int-string-field": json.dumps(
        {"kind": "coin-state", "p1": "1", "p2": 0.5, "p3": 0.5,
         "x": "1", "y": 0, "z1": 0, "z2": 0}
    ),
    "float-string-field": json.dumps(
        {"kind": "coin-state", "p1": 0.5, "p2": 0.5, "p3": "0.5",
         "x": 0, "y": 0, "z1": 0, "z2": "0.5"}
    ),
    "bool-field": json.dumps(
        {"kind": "coin-state", "p1": 1, "p2": True, "p3": 0.5,
         "x": 0, "y": True, "z1": 0, "z2": 0}
    ),
    "missing-field": json.dumps(
        {"kind": "coin-state", "p1": 0.5, "p2": 0.5, "x": 0, "y": 0, "z1": 0}
    ),
    # a valid object, padded with spaces to one character over the cap
    "over-the-cap": json.dumps(
        {"kind": "coin-state", "p1": 0.5, "p2": 0.5, "p3": 0.5,
         "x": 0, "y": 0, "z1": 0, "z2": 0}
    ).ljust(2**20 + 1),
}
BAD_FILE_MESSAGES = {
    ("--state", "missing-field"): "coin-state object is missing field 'p3'",
    ("--obs", "missing-field"): "observable object is missing field 'z2'",
    ("--state", "over-the-cap"): "longer than 1048576 characters",
    ("--obs", "over-the-cap"): "longer than 1048576 characters",
}


class TestBadFiles:
    """Unreadable or malformed JSON files and unwritable output files end
    in exit 2 with an error object."""

    @pytest.mark.parametrize("flag", ["--state", "--obs"])
    @pytest.mark.parametrize("case", ["missing", "directory", *BAD_FILE_CONTENTS])
    def test_exit_2_with_error_object(self, capsys, tmp_path, flag, case):
        path = tmp_path / "input.json"
        if case == "directory":
            path.mkdir()
        elif case != "missing":
            path.write_text(BAD_FILE_CONTENTS[case], encoding="utf-8")
        if flag == "--state":
            argv = ["check", "--state", str(path)]
        else:
            argv = ["mean", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
                    "--obs", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "domain"
        assert error["message"]
        assert BAD_FILE_MESSAGES.get((flag, case), "") in error["message"]

    def test_the_cap_is_one_mebibyte(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(ProbabilityTriple(0.5, 0.5, 1.0).to_json_dict())
                        .ljust(2**20), encoding="utf-8")
        assert run_json(capsys, "check", "--state", str(path))["class"] == "pure"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_an_endless_file_is_read_no_further_than_the_cap(self):
        # under a 512 MiB address space, reading all of it ends in MemoryError
        resource = pytest.importorskip("resource")
        limit = 512 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "coinqubit.cli", "check", "--state", "/dev/zero"],
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)), capture_output=True,
            encoding="utf-8", timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert error["code"] == "domain" and "longer than" in error["message"]

    @pytest.mark.parametrize("argv", [
        ["render", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5", "--out"],
        pytest.param(["sample", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
                      "--n", "3", "--seed", "1", "--flips"], marks=pytest.mark.needs_numpy),
    ], ids=["render-out", "sample-flips"])
    def test_unwritable_output(self, capsys, tmp_path, argv):
        path = tmp_path / "missing-dir" / "output"
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "domain"
        assert not path.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        pytest.param(["sample", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
                      "--n", "3", "--seed", "1", "--flips", "/dev/full"],
                     marks=pytest.mark.needs_numpy),
        ["render", "--p1", "1", "--p2", "0.5", "--p3", "0.5", "--out", "/dev/full"],
    ], ids=["sample-flips", "render-out"])
    def test_failed_write(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "domain" and "/dev/full" in error["message"]


class TestScalars:
    def test_purity_matches_library(self, capsys):
        payload = run_json(
            capsys, "purity", "--p1", "0.6", "--p2", "0.6", "--p3", "0.6"
        )
        assert payload["purity"] == purity(ProbabilityTriple(0.6, 0.6, 0.6))

    def test_fidelity(self, capsys):
        payload = run_json(
            capsys,
            "fidelity",
            "--p1", "0.5", "--p2", "0.5", "--p3", "1",
            "--q1", "1", "--q2", "0.5", "--q3", "0.5",
        )
        assert payload["fidelity"] == fidelity(
            ProbabilityTriple(0.5, 0.5, 1), ProbabilityTriple(1, 0.5, 0.5)
        )


class TestSuperpose:
    def test_byte_equivalent_to_library(self, capsys):
        p = ProbabilityTriple(0.9, 0.5 + math.sqrt(0.08), 0.6)
        q = ProbabilityTriple(0.3, 0.4, 0.5 - math.sqrt(0.20))
        w = ProbabilityTriple(0.75, 0.5 + math.sqrt(0.125), 0.75)
        payload = run_json(
            capsys,
            "superpose",
            "--p1", repr(p.p1), "--p2", repr(p.p2), "--p3", repr(p.p3),
            "--q1", repr(q.p1), "--q2", repr(q.p2), "--q3", repr(q.p3),
            "--w1", repr(w.p1), "--w2", repr(w.p2), "--w3", repr(w.p3),
        )
        expected = superpose_general(p, q, SuperpositionWeights(w))
        assert payload["result"]["p1"] == expected.state.p1
        assert payload["result"]["p2"] == expected.state.p2
        assert payload["result"]["p3"] == expected.state.p3
        assert payload["normalization"] == expected.normalization


class TestPartnerAndTriada:
    def test_triada_matches_library(self, capsys):
        payload = run_json(
            capsys, "triada", "--p1", "0.5", "--p2", "0.5", "--p3", "1"
        )
        t = triada_sides(ProbabilityTriple(0.5, 0.5, 1))
        assert (payload["L1"], payload["L2"], payload["L3"]) == t.sides()


class TestRender:
    def test_out_file_and_validity(self, capsys, tmp_path):
        path = tmp_path / "triada.svg"
        code, out, _ = run_cli(
            capsys,
            "render",
            "--p1", "0.9", "--p2", "0.5", "--p3", "0.5",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")


class TestSample:
    def test_matches_library(self, capsys):
        payload = run_json(
            capsys,
            "sample",
            "--p1", "0.7", "--p2", "0.5", "--p3", "0.5",
            "--n", "1000", "--seed", "42",
        )
        report = run_experiment(ProbabilityTriple(0.7, 0.5, 0.5), 1000, 42)
        assert payload["p_hat"]["p1"] == report.p_hat.p1
        assert payload["seed"] == 42
        assert payload["counts"] == {"x": 1000, "y": 1000, "z": 1000}

    @pytest.mark.needs_numpy
    def test_flips_csv(self, capsys, tmp_path):
        path = tmp_path / "flips.csv"
        run_json(
            capsys,
            "sample",
            "--p1", "0.5", "--p2", "0.5", "--p3", "1",
            "--n", "5", "--seed", "1", "--flips", str(path),
        )
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["trial", "axis", "outcome"]
        assert len(rows) == 16
        z_rows = [row for row in rows[1:] if row[1] == "z"]
        assert all(row[2] == "up" for row in z_rows)

    def test_classical_target_writes_no_flips_file(self, capsys, tmp_path):
        path = tmp_path / "flips.csv"
        code, out, err = run_cli(
            capsys, "sample", "--p1", "1", "--p2", "1", "--p3", "1",
            "--n", "5", "--seed", "1", "--flips", str(path),
        )
        assert code == 2 and out == "" and not path.exists()
        assert json.loads(err)["error"]["code"] == "classical-state"


class TestMean:
    @pytest.mark.parametrize("coefficients", [
        (1.0, 2.0, 3.0, -1.0),
        (-0.0, -0.0, -0.0, -0.0),  # the sign of zero reaches the output
    ])
    def test_matches_library(self, capsys, coefficients):
        p = ProbabilityTriple(0.6, 0.7, 0.8)
        flags = [f"--{name}={value!r}"
                 for name, value in zip(("x", "y", "z1", "z2"), coefficients)]
        code, out, err = run_cli(
            capsys, "mean", "--p1", "0.6", "--p2", "0.7", "--p3", "0.8", *flags
        )
        assert code == 0, err
        payload = json.loads(out, parse_int=float)  # "-0" stays -0.0
        obs = CoinObservable(*coefficients)
        means = zip(payload["classical_means"].values(), classical_means(obs, p))
        for value, want in means:
            assert (value, math.copysign(1, value)) == (want, math.copysign(1, want))
        assert payload["mean"] == quantum_mean(obs, p)


class TestDispatch:
    def test_help_lists_every_subcommand_and_flag(self, capsys):
        for argv in (["--help"], ["-h"], *([name, "-h"] for name in _COMMANDS)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            if len(argv) == 1:
                assert out.startswith("usage: coinqubit SUBCOMMAND ")
                listed = list(_COMMANDS)
            else:
                assert out.startswith(f"usage: coinqubit {argv[0]} ")
                listed = [f"--{flag}" for flag in _flags(argv[0])]
            rows = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
            assert rows == [*listed, "-h,"], argv


TRANSCRIPT = json.loads((DATA_DIR / "cli_transcript.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry",
    [pytest.param(e, marks=pytest.mark.needs_numpy if "--flips" in e["argv"] else ())
     for e in TRANSCRIPT],
    ids=[f"{i:02d}-{(e['argv'] or ['no-args'])[0]}" for i, e in enumerate(TRANSCRIPT)],
)
def test_golden_transcript(capsys, monkeypatch, tmp_path, entry):
    """Replay of the argvs in data/cli_transcript.json.

    An entry holds the argv, the input files to write, the environment, and
    the exit code, stdout and stderr of the run, compared byte for byte.
    "{dir}" stands for the temporary directory in the argv and the streams.
    """
    monkeypatch.delenv("COIN_QUBIT_SEED", raising=False)
    for name, value in entry.get("env", {}).items():
        monkeypatch.setenv(name, value)
    for name, text in entry.get("files", {}).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in entry["argv"]]
    code, out, err = run_cli(capsys, *argv)
    run = (code, out.replace(str(tmp_path), "{dir}"), err.replace(str(tmp_path), "{dir}"))
    assert run == (entry["exit"], entry["stdout"], entry["stderr"])


# --------------------------------------------------------------- CLI fuzzing

STATE_SLOTS = {  # subcommand -> (flag prefix, file flag) per state it takes
    "check": [("p", "state")],
    "purity": [("p", "state")],
    "fidelity": [("p", "state1"), ("q", "state2")],
    "convert": [("p", "state")],
    "superpose": [("p", "state1"), ("q", "state2"), ("w", "weights")],
    "partner": [("p", "state")],
    "triada": [("p", "state")],
    "render": [("p", "state")],
    "sample": [("p", "state")],
    "mean": [("p", "state")],
}
EXTREMES = [0.0, -0.0, 0.5, 1.0, 1e-13, 1 - 1e-13, -1e-13, -1e-20, 1e308,
            -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
POLES = [(0.5, 0.5, 1.0), (0.5, 0.5, 0.0), (1.0, 0.5, 0.5), (0.5, 0.0, 0.5)]


def _pure(theta: float, phi: float) -> tuple[float, float, float]:
    r = math.sin(theta) / 2.0
    return 0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi), 0.5 + math.cos(theta) / 2


def _on_circle(p3: float, phi: float) -> tuple[float, float, float]:
    r = math.sqrt(p3 * (1.0 - p3))
    return 0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi), p3


numbers = st.one_of(st.floats(0, 1), st.sampled_from(EXTREMES), st.floats())
# repr and lossless exponent form: argparse once read "-1.5e+03" as a flag
number_texts = st.one_of(numbers.map(repr), numbers.map("{:.17e}".format))
triples = st.one_of(
    st.tuples(numbers, numbers, numbers),
    st.builds(_pure, st.floats(0, math.pi), st.floats(0, 2 * math.pi)),
    st.sampled_from(POLES),
    # pure states next to a pole, whose azimuth radius is 3e-7 or 1e-10
    st.builds(
        _on_circle, st.sampled_from([1e-13, 1e-20]), st.floats(0, 2 * math.pi)
    ),
)
# Pairs whose fidelity eps^2/4 straddles ORTHO_TOL = 1e-9 around eps = 6e-5.
near_orthogonal_pairs = st.builds(
    lambda theta, phi, eps: (
        _pure(theta, phi), _pure(math.pi - theta + eps, phi + math.pi)
    ),
    st.floats(0, math.pi), st.floats(0, 2 * math.pi), st.floats(-1e-4, 1e-4),
)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=4))
file_contents = st.one_of(
    triples.map(lambda t: json.dumps(
        {"kind": "coin-state", "p1": t[0], "p2": t[1], "p3": t[2]})),
    st.tuples(numbers, numbers, numbers, numbers).map(
        lambda v: json.dumps(dict(zip(("x", "y", "z1", "z2"), v)))),
    st.dictionaries(
        st.sampled_from(["kind", "p1", "p2", "p3", "x", "y", "z1", "z2"]), json_scalars
    ).map(json.dumps),
    st.lists(json_scalars, max_size=4).map(json.dumps),
    st.text(max_size=12),
)


@st.composite
def cli_runs(draw, workdir):
    """An argv for a random subcommand plus the input files it names."""
    sub = draw(st.sampled_from(sorted(STATE_SLOTS)))
    argv, files = [sub], {}

    def option(flag, text):  # "--flag=text" or the two tokens "--flag", "text"
        if draw(st.booleans()):
            argv.append(f"--{flag}={text}")
        else:
            argv.extend([f"--{flag}", text])

    def maybe(flag, values):  # give the flag three times in four
        if draw(st.integers(0, 3)):
            option(flag, str(draw(values)))

    slots = STATE_SLOTS[sub]
    states = [draw(triples) for _ in slots]
    if sub == "superpose" and draw(st.booleans()):
        states[:2] = draw(near_orthogonal_pairs)
    for (prefix, file_flag), state in zip(slots, states):
        if draw(st.integers(0, 3)) == 0:
            path = workdir / f"{file_flag}.json"
            files[path] = draw(file_contents)
            argv.append(f"--{file_flag}={path}")
        else:
            for i, value in enumerate(state, 1):
                if draw(st.integers(0, 19)):  # now and then leave a flag out
                    text = draw(st.sampled_from([repr(value), f"{value:.17e}"]))
                    option(f"{prefix}{i}", text)
    outputs = st.sampled_from([
        str(workdir / "output"), str(workdir), str(workdir / "missing" / "output"),
        *(["/dev/full"] if os.path.exists("/dev/full") else []),
    ])
    if sub == "convert":
        maybe("to", st.sampled_from(["density", "spinor", "complex", "matrix"]))
    elif sub == "partner":
        maybe("sign", st.sampled_from(["+", "-", "0"]))
    elif sub == "render":
        maybe("scale", number_texts)
        maybe("out", outputs)
        if draw(st.booleans()):
            argv.append("--labels")
    elif sub == "sample":
        maybe("n", st.integers(-1, 2000))
        maybe("seed", st.one_of(st.integers(0, 2 ** 64), st.integers(-2, 2 ** 130)))
        maybe("flips", outputs)
    elif sub == "mean":
        if draw(st.integers(0, 3)) == 0:
            path = workdir / "obs.json"
            files[path] = draw(file_contents)
            argv.append(f"--obs={path}")
        else:
            for flag in ("x", "y", "z1", "z2"):
                maybe(flag, number_texts)
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(
            ["--bogus", "--n=1", "--q1=.5", "--labels", "-h", "--help"])))
    return argv, files


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


@pytest.mark.needs_numpy  # sample --flips, and sample beyond 4096 flips
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_ends_in_a_clean_exit(fuzz_dir, data):
    argv, files = data.draw(cli_runs(fuzz_dir), label="run")
    for path, text in files.items():
        path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())["error"]
        assert isinstance(error["code"], str) and isinstance(error["message"], str)
    elif code == 0 and argv[-1] in ("-h", "--help"):
        assert out.getvalue().startswith(f"usage: coinqubit {argv[0]} ")
        assert err.getvalue() == ""
    elif code == 0 and argv[0] != "render":  # render writes SVG, not JSON
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# ------------------------------------------------------------ the argv reader

P = ["--p1=0.5", "--p2=0.5", "--p3=0.5"]  # a whole state, so only the odd token fails


class TestReader:
    """main reads argv from the command table alone."""

    @pytest.mark.parametrize("argv, read", [
        (["check"], {}),
        (["check", "--p1=0.5", "--p2", "0.5", "--p3", "-0.0"],
         {"p1": 0.5, "p2": 0.5, "p3": -0.0}),
        (["check", "--p1", "1e-13", "--p1=0.25", "--p2=.5", "--p3", "0.5"],
         {"p1": 0.25, "p2": 0.5, "p3": 0.5}),
        # a separate text that does not start with "--" reads as "--flag=text"
        (["check", "--p1", "-1e-13", "--p2", "-inf", "--state", "-", "--state="],
         {"p1": -1e-13, "p2": -math.inf, "state": ""}),
        (["fidelity", "--state1=a.json", "--q1", "-1e3", "--q2=-inf", "--q3", "nan"],
         {"state1": "a.json", "q1": -1000.0, "q2": -math.inf, "q3": math.nan}),
        (["superpose", "--state1", "a b", "--state2=b=c", "--weights", "=", "--w1=0.5"],
         {"state1": "a b", "state2": "b=c", "w1": 0.5, "weights": "="}),
        (["convert", "--p1=0.5", "--to", "spinor", "--to=complex"],
         {"p1": 0.5, "to": "complex"}),
        (["partner", "--sign", "-", "--state", "s.json"], {"state": "s.json", "sign": "-"}),
        (["render", "--labels", "--scale", "-1e2", "--labels", "--out=x.svg"],
         {"scale": -100.0, "labels": True, "out": "x.svg"}),
        (["sample", "--n", "-5", "--seed=-1", "--flips", "f.csv", "--n=1_000"],
         {"n": 1000, "seed": -1, "flips": "f.csv"}),
        (["mean", "--x", "-2.5E-3", "--y", "-.5e1", "--z1", "-1.e+2", "--z2", "-1e3",
          "--obs=--help"], {"x": -0.0025, "y": -5.0, "z1": -100.0, "z2": -1000.0,
                            "obs": "--help"}),
    ])
    def test_reads_the_values(self, argv, read):
        # each flag not given keeps its default; repr tells nan, -0.0, 1
        # and 1.0 apart, which == does not
        defaults = {flag: options.get("default") for flag, options in _flags(argv[0]).items()}
        expected = {"subcommand": argv[0], **defaults, **read}
        assert repr(vars(_read(argv))) == repr(expected)

    @pytest.mark.parametrize("argv, code", [
        ([], 1), (["frobnicate"], 1), (["--p1=0.5", "check"], 1),
        (["check", *P, "--bogus=1"], 1), (["check", *P, "--bogus", "1"], 1),
        (["check", *P, "--p", "0.5"], 1), (["render", *P, "--sca", "50"], 1),
        (["check", *P, "--he"], 1), (["check", *P, "--"], 1), (["check", "--", *P], 1),
        (["check", *P, "-p1", "1"], 1), (["check", *P, "x"], 1), (["check", *P, "--p1"], 1),
        (["check", *P, "--p1", ""], 1), (["check", *P, "--p1", "-"], 1),
        (["check", *P, "--p1=abc"], 1), (["check", "--state", "--p1=0.5"], 1),
        (["convert", *P, "--to=matrix"], 1), (["partner", *P, "--sign", "0"], 1),
        (["render", *P, "--labels=1"], 1), (["render", *P, "--labels="], 1),
        (["sample", *P, "--seed", "1"], 1), (["sample", *P, "--seed=1", "--n=1.5"], 1),
        (["sample", *P, "--seed=1", "--n", "9" * 5000], 1),
        # -h or --help anywhere prints help
        (["-h", "frobnicate"], 0), (["frobnicate", "--help"], 0),
        (["check", *P, "--bogus", "-h"], 0), (["render", "--out", "-h"], 0),
    ])
    def test_other_argvs_are_usage_errors_or_help(self, capsys, argv, code):
        result = run_cli(capsys, *argv)
        assert result[0] == code, result
        if code:
            assert result[1] == "" and result[2].startswith("usage error: ")
        else:
            assert result[1].startswith("usage: coinqubit ") and result[2] == ""

    def test_each_flag_of_the_table(self):
        # every flag, read as "--flag text" and as "--flag=text"
        for name in _COMMANDS:
            for flag, options in _flags(name).items():
                kind = options.get("type", str)
                text = options.get("choices", ("7",))[0]
                forms = ([[f"--{flag}"]] if kind is bool
                         else [[f"--{flag}", text], [f"--{flag}={text}"]])
                for form in forms:
                    argv = [name, *(["--n=1"] if name == "sample" else []), *form]
                    assert getattr(_read(argv), flag) == kind(text), argv


@given(st.text(st.characters(exclude_categories=())))  # lone surrogates too
@example('"\\/\x00\x1f\x7f\u2028\ud800\U0001f600\xe9')
def test_quote_is_json_dumps(text):
    assert _quote(text) == json.dumps(text)
    # the fallback where json's C accelerator is missing
    assert py_encode_basestring_ascii(text) == json.dumps(text)


class TestFailingStreams:
    """A standard stream that is closed or fails ends in exit 2 (or in the
    exit code the run would have had, when only stderr fails), never in a
    traceback.  Help is printed through the same writer as a result, so it
    fails on stdout the same way."""

    ENTRY = ["-m", "coinqubit.cli"]
    CHECK = ["check", "--p1", "1", "--p2", "1", "--p3", "1"]
    HELP = [["--help"], ["sample", "-h"]]

    def run(self, argv, redirect="", **kwargs):
        """The CLI as a subprocess, its streams redirected by the POSIX
        shell words `redirect`."""
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        return subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh",
             sys.executable, *self.ENTRY, *argv],
            env=env, stderr=subprocess.PIPE, encoding="utf-8", timeout=60, **kwargs,
        )

    @staticmethod
    def assert_error_object(proc):
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"]["code"] == "domain"

    def test_pipe_closed_before_the_write(self):
        for argv in (self.CHECK, *self.HELP):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = self.run(argv, stdout=write_end)
            finally:
                os.close(write_end)
            self.assert_error_object(proc)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        sample = ["sample", "--p1", "0.7", "--p2", "0.5", "--p3", "0.5",
                  "--n", "10", "--seed", "1"]
        for argv in (sample, *self.HELP):
            self.assert_error_object(self.run(argv, ">/dev/full"))

    def test_closed_stdout(self):
        for argv in (self.CHECK, *self.HELP):
            self.assert_error_object(self.run(argv, ">&-"))

    def test_closed_stderr(self):
        argv = ["purity", "--p1", "1", "--p2", "1", "--p3", "1"]  # classical
        proc = self.run(argv, "2>&-", stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout) == (2, "")


class TestFailingStreamsConsoleScript(TestFailingStreams):
    """The same cases through the body of the installed `coinqubit` script."""

    ENTRY = ["-c", "import sys; from coinqubit.cli import main; sys.exit(main())"]
