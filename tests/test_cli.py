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

import pytest
from hypothesis import HealthCheck, given, settings
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
from coinqubit.cli import main

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


class TestCheck:
    def test_classical_corner(self, capsys):
        payload = run_json(capsys, "check", "--p1", "1", "--p2", "1", "--p3", "1")
        assert payload == {"class": "classical", "radius2": 0.75}

    def test_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(ProbabilityTriple(0.5, 0.5, 1.0).to_json_dict()),
                        encoding="utf-8")
        payload = run_json(capsys, "check", "--state", str(path))
        assert payload["class"] == "pure"

    def test_flags_and_file_conflict(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"kind": "coin-state", "p1": 1, "p2": 1, "p3": 1}),
                        encoding="utf-8")
        code, _, err = run_cli(
            capsys, "check", "--p1", "1", "--p2", "1", "--p3", "1",
            "--state", str(path),
        )
        assert code == 1 and "not both" in err


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
        ["sample", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
         "--n", "3", "--seed", "1", "--flips"],
    ], ids=["render-out", "sample-flips"])
    def test_unwritable_output(self, capsys, tmp_path, argv):
        path = tmp_path / "missing-dir" / "output"
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "domain"
        assert not path.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["sample", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
         "--n", "3", "--seed", "1", "--flips", "/dev/full"],
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

    def test_purity_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "purity", "--p1", "1", "--p2", "1", "--p3", "1"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "classical-state"
        assert error["message"]

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


class TestConvert:
    def test_density(self, capsys):
        payload = run_json(
            capsys, "convert", "--p1", "1", "--p2", "0.5", "--p3", "0.5"
        )
        assert payload["matrix"]["rho00"] == 0.5
        assert payload["matrix"]["rho01"] == {"re": 0.5, "im": -0.0}
        assert payload["nonnegative"] is True

    def test_spinor(self, capsys):
        payload = run_json(
            capsys, "convert", "--p1", "0.5", "--p2", "1", "--p3", "0.5",
            "--to", "spinor",
        )
        assert payload["phase"] == pytest.approx(math.pi / 2)

    def test_complex(self, capsys):
        payload = run_json(
            capsys, "convert", "--p1", "0.5", "--p2", "0.5", "--p3", "1",
            "--to", "complex",
        )
        assert payload == {"re": 1.0, "im": 0.0}


class TestSuperpose:
    def test_equal_weight_fixture(self, capsys):
        payload = run_json(
            capsys,
            "superpose",
            "--p1", "0.5", "--p2", "0.5", "--p3", "1",
            "--q1", "0.5", "--q2", "0.5", "--q3", "0",
            "--w1", "1", "--w2", "0.5", "--w3", "0.5",
        )
        result = payload["result"]
        assert (result["p1"], result["p2"], result["p3"]) == pytest.approx(
            (1.0, 0.5, 0.5), abs=1e-12
        )
        assert payload["paths_agree"] is True
        assert payload["fallback_used"] is True  # |0>, |1> sit at the poles

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

    @pytest.mark.parametrize("states", [
        # fidelity 2.5e-11: passes ORTHO_TOL without being exactly orthogonal
        ["--p1", "0.8875230508458739", "--p2", "0.6638421180023594",
         "--p3", "0.7701511529340699", "--q1", "0.11247943743039668",
         "--q2", "0.33615893402397434", "--q3", "0.22984463972451374",
         "--w1", "1", "--w2", "0.5", "--w3", "0.5"],
        # weight phase 2.0 on a weight triple 1e-13 from the pole
        ["--p1", "1", "--p2", "0.5", "--p3", "0.5",
         "--q1", "0", "--q2", "0.5", "--q3", "0.5",
         "--w1", repr(0.5 + math.sqrt(1e-13 * (1 - 1e-13)) * math.cos(2.0)),
         "--w2", repr(0.5 + math.sqrt(1e-13 * (1 - 1e-13)) * math.sin(2.0)),
         "--w3", "1e-13"],
        # p3 3.6e-12 and normalization 0.015: the closed form would lie
        # 1.4e-9 from the oracle, so the general rule hands over to it
        ["--p1", "0.5000013900918417", "--p2", "0.4999987231106461",
         "--p3", "3.5628017508472857e-12", "--q1", "0.39269277885260706",
         "--q2", "0.38864307393773917", "--q3", "0.0245162512686804",
         "--w1", "0.5497439217097553", "--w2", "0.0025055548310435327",
         "--w3", "0.4950181048820833"],
        # a state superposed with itself near destructive interference
        # (normalization 5e-12 and 1e-10): the closed form would lie 4.1e-5
        # from the oracle, or leave [0, 1], so the general rule hands over
        ["--p1=0.9133980490820579", "--p2=0.49817524763507715",
         "--p3=0.7812449524772935", "--q1=0.9133980490820579",
         "--q2=0.49817524763507715", "--q3=0.7812449524772935",
         "--w1=2.5415225479719084e-12", "--w2=0.5000015942092942", "--w3=0.5"],
        ["--p1", "0.50000002787752", "--p2", "0.5", "--p3", "0.9999999999999992",
         "--q1", "0.50000002787752", "--q2", "0.5", "--q3", "0.9999999999999992",
         "--w1", "5.000000413701855e-11", "--w2", "0.5000070710678117",
         "--w3", "0.5"],
        # |+x> with itself at normalization 2.7e-5: the closed form runs but
        # rounds p1 to 1 + 1e-12, past SPILL_TOL, so the oracle takes over
        ["--p1", "1", "--p2", "0.5", "--p3", "0.5",
         "--q1", "1", "--q2", "0.5", "--q3", "0.5",
         "--w1", "1.3738458930878661e-05", "--w2", "0.5037065172582416",
         "--w3", "0.5"],
    ])
    def test_paths_agree_on_edge_inputs(self, capsys, states):
        payload = run_json(capsys, "superpose", *states)
        assert payload["paths_agree"] is True

    def test_degenerate_superposition_exit(self, capsys):
        code, _, err = run_cli(
            capsys,
            "superpose",
            "--p1", "1", "--p2", "0.5", "--p3", "0.5",
            "--q1", "1", "--q2", "0.5", "--q3", "0.5",
            "--w1", "0", "--w2", "0.5", "--w3", "0.5",
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == "degenerate-superposition"


class TestPartnerAndTriada:
    def test_partner(self, capsys):
        payload = run_json(
            capsys, "partner", "--p1", "0.5", "--p2", "0.5", "--p3", "1"
        )
        assert payload == {"kind": "coin-state", "p1": 0.5, "p2": 0.5, "p3": 0.0}

    def test_triada_matches_library(self, capsys):
        payload = run_json(
            capsys, "triada", "--p1", "0.5", "--p2", "0.5", "--p3", "1"
        )
        t = triada_sides(ProbabilityTriple(0.5, 0.5, 1))
        assert (payload["L1"], payload["L2"], payload["L3"]) == t.sides()

    def test_triada_clamps_a_radicand_just_below_zero(self, capsys):
        payload = run_json(capsys, "triada", "--p1", "0.9999999912882298",
                           "--p2", "8.070268367197516e-09", "--p3", "0.5")
        assert payload["L1"] == 0.0


class TestRender:
    def test_golden(self, capsys):
        code, out, err = run_cli(
            capsys,
            "render",
            "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
            "--scale", "100", "--labels",
        )
        assert code == 0
        golden = (DATA_DIR / "triada_mixed_scale100_labels.svg").read_text(
            encoding="utf-8")
        assert out == golden

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

    def test_bad_scale_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "render",
            "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
            "--scale", "-1",
        )
        assert code == 1 and "scale" in err

    @pytest.mark.parametrize("scale", ["inf", "nan", "1e308"])
    def test_non_finite_scale_is_usage_error(self, capsys, scale):
        code, out, err = run_cli(
            capsys,
            "render",
            "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
            "--scale", scale,
        )
        assert code == 1 and out == "" and "scale" in err


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

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("COIN_QUBIT_SEED", "42")
        with_env = run_json(
            capsys, "sample", "--p1", "0.7", "--p2", "0.5", "--p3", "0.5",
            "--n", "100",
        )
        assert with_env["seed"] == 42

    def test_seed_required(self, capsys, monkeypatch):
        monkeypatch.delenv("COIN_QUBIT_SEED", raising=False)
        code, _, err = run_cli(
            capsys, "sample", "--p1", "0.7", "--p2", "0.5", "--p3", "0.5",
            "--n", "100",
        )
        assert code == 1 and "seed" in err

    def test_seed_env_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("COIN_QUBIT_SEED", "abc")
        code, out, err = run_cli(
            capsys, "sample", "--p1", "0.7", "--p2", "0.5", "--p3", "0.5",
            "--n", "100",
        )
        assert code == 1 and out == ""
        assert "COIN_QUBIT_SEED must be an integer, got 'abc'" in err

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--p1", "0.7", "--p2", "0.5", "--p3", "0.5",
            "--n", "100", "--seed", "-1",
        )
        assert code == 1 and out == "" and "seed" in err

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
    def test_fixture(self, capsys):
        payload = run_json(
            capsys,
            "mean",
            "--p1", "0.6", "--p2", "0.7", "--p3", "0.8",
            "--x", "1", "--y", "2", "--z1", "3", "--z2", "-1",
        )
        assert payload["mean"] == pytest.approx(3.2, abs=1e-12)
        assert payload["classical_means"] == pytest.approx(
            {"x": 0.2, "y": 0.8, "z": 2.2}, abs=1e-12
        )

    def test_obs_file(self, capsys, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"x": 0, "y": 0, "z1": 1, "z2": -1}),
                        encoding="utf-8")
        payload = run_json(
            capsys, "mean", "--p1", "0.5", "--p2", "0.5", "--p3", "1",
            "--obs", str(path),
        )
        assert payload["mean"] == pytest.approx(1.0)

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

    def test_overflowing_mean_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "mean", "--p1", "0.85", "--p2", "0.85", "--p3", "0.5",
            "--x", "1.7e308", "--y", "1.7e308",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "domain"

    def test_terms_near_the_float_maximum_that_cancel(self, capsys):
        """The identity check scales with the terms, not the small result."""
        code, out, err = run_cli(
            capsys, "mean", "--p1", "0.7723330615942896",
            "--p2", "0.45957283234338875", "--p3", "0.3337336266561558",
            "--x", "1.7905276991425794e+308", "--y", "9.869194917699231e+306",
            "--z1=-8.337909217709147e+306", "--z2=-1.4100957455871298e+308",
        )
        assert (code, err) == (0, "")
        assert out == (
            '{"mean": -6.5676897196206957e+303, "classical_means": '
            '{"x": 9.7523978035375541e+307, "y": -7.9796719514720498e+305, '
            '"z": -9.6732578529947953e+307}}\n'
        )

    def test_a_z_mean_that_cancels_to_zero(self, capsys):
        """The trace absorbs the y mean into terms near the float maximum."""
        code, out, err = run_cli(
            capsys, "mean", "--p1", "0.7701511529340699",
            "--p2", "0.9207354924039483", "--p3", "0.5",
            "--x", "0", "--y", "1", "--z1", "1.7e308", "--z2", "-1.7e308",
        )
        assert (code, err) == (0, "")
        assert out == ('{"mean": 0, "classical_means": '
                       '{"x": 0, "y": 0.8414709848078965, "z": 0}}\n')


class TestDispatch:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--bogus", "1")
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_help_returns_0_with_the_text_on_stdout(self, capsys):
        for argv in (["--help"], ["-h"], *([sub, "-h"] for sub in STATE_SLOTS)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            prog = "coinqubit" if len(argv) == 1 else f"coinqubit {argv[0]}"
            assert out.startswith(f"usage: {prog} ")
            assert "-h, --help" in out and out.endswith("\n")

    @pytest.mark.parametrize("argv, code", [
        (["check", "--p1", "-1e-13", "--p2", "0.5", "--p3", "0.5"], 0),
        (["mean", "--p1", "0.6", "--p2", "0.7", "--p3", "0.8", "--z2", "-1e3"], 0),
        (["mean", "--p1", "0.6", "--p2", "0.7", "--p3", "0.8",
          "--x", "-2.5E-3", "--y", "-.5e1", "--z1", "-1.e+2"], 0),
        (["render", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5",
          "--scale", "-1e2"], 1),  # the scale must be positive
    ])
    def test_negative_exponent_values(self, capsys, argv, code):
        # a separate "-1e3" token is a value, as in "--z2=-1e3"
        joined = [argv[0]] + [
            f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])
        ]
        result = run_cli(capsys, *argv)
        assert result[0] == code
        assert result == run_cli(capsys, *joined)

    def test_outputs_are_valid_json(self, capsys):
        for argv in (
            ["check", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5"],
            ["triada", "--p1", "0.1", "--p2", "0.2", "--p3", "0.3"],
            ["purity", "--p1", "0.5", "--p2", "0.5", "--p3", "0.6"],
        ):
            run_json(capsys, *argv)

    def test_float_serialization_round_trips(self, capsys):
        value = 0.1 + 0.2  # not representable prettily; must round-trip
        payload = run_json(
            capsys, "check", "--p1", repr(value), "--p2", "0.5", "--p3", "0.5"
        )
        expected = ProbabilityTriple(value, 0.5, 0.5).radius2
        assert payload["radius2"] == expected


TRANSCRIPT = json.loads((DATA_DIR / "cli_transcript.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", TRANSCRIPT,
    ids=[f"{i:02d}-{(e['argv'] or ['no-args'])[0]}" for i, e in enumerate(TRANSCRIPT)],
)
def test_golden_transcript(capsys, monkeypatch, tmp_path, entry):
    """Replay of the argvs in data/cli_transcript.json.

    An entry holds the argv ("{dir}" stands for a temporary directory), the
    input files to write there, the environment, and the exit code.  Exit 0
    compares stdout byte for byte, exit 2 the error code; exit 1 compares
    the code alone, since argparse's wording differs between versions.
    """
    monkeypatch.delenv("COIN_QUBIT_SEED", raising=False)
    for name, value in entry.get("env", {}).items():
        monkeypatch.setenv(name, value)
    for name, text in entry.get("files", {}).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in entry["argv"]]
    code, out, err = run_cli(capsys, *argv)
    assert code == entry["exit"], err
    if code == 0:
        assert out == entry["stdout"]
    elif code == 2:
        assert json.loads(err)["error"]["code"] == entry["error"]


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


NUMPY_PROBE = """
import contextlib, io, json, sys
import coinqubit, coinqubit.cli
from coinqubit import CoinObservable, ProbabilityTriple, SuperpositionWeights
from coinqubit.cli import main

state = ["--p1", "1", "--p2", "0.5", "--p3", "0.5"]
scalar_argvs = [
    ["check", *state],
    ["purity", *state],
    ["fidelity", *state, "--q1", "0", "--q2", "0.5", "--q3", "0.5"],
    ["convert", *state, "--to", "density"],
    ["convert", *state, "--to", "spinor"],
    ["convert", *state, "--to", "complex"],
    ["partner", *state],
    ["triada", *state],
    ["render", *state, "--labels"],
]
weights = ["--w1", "0.5", "--w2", "1", "--w3", "0.5"]
oracle_argvs = [  # an orthogonal pair, a general pair, a hand-over pair
    ["superpose", *state, "--q1", "0", "--q2", "0.5", "--q3", "0.5", *weights],
    ["superpose", *state, "--q1", "0.5", "--q2", "1", "--q3", "0.5", *weights],
    ["superpose", "--p1", "0.5009999995", "--p2", "0.5", "--p3", "1e-6",
     "--q1", "0.5", "--q2", "1", "--q3", "0.5", *weights],
    ["mean", *state, "--x", "1", "--y", "2", "--z1", "3", "--z2=-1e3"],
]
loaded = {"import": "numpy" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()) as out:
    for argv in scalar_argvs:
        assert main(argv) == 0, argv
    loaded["scalar"] = "numpy" in sys.modules
    plus, minus = ProbabilityTriple(1, 0.5, 0.5), ProbabilityTriple(0, 0.5, 0.5)
    w = SuperpositionWeights(ProbabilityTriple(0.5, 1, 0.5))
    for path in ("superpose_general", "superpose_orthogonal", "superpose_spinor"):
        getattr(coinqubit, path)(plus, minus, w)  # orthogonal, off the poles
    loaded["kernels"] = "numpy" in sys.modules
    for argv in oracle_argvs:
        assert main(argv) == 0, argv
    coinqubit.superpose_oracle(plus, ProbabilityTriple(0.5, 1, 0.5), w)
    coinqubit.quantum_mean(CoinObservable(1, 2, 3, -1), ProbabilityTriple(0.6, 0.7, 0.8))
    loaded["oracle_and_mean"] = "numpy" in sys.modules
    loaded["handover"] = out.getvalue().count('"fallback_used": true')
    for n in ("10", "4096", "4097"):  # the plain draw, at most _PLAIN_MAX flips
        assert main(["sample", *state, "--n", n, "--seed", "1"]) == 0
        loaded[f"sample {n}"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""

FLIPS_PROBE = """
import contextlib, io, sys
from coinqubit.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["sample", "--p1", "0.6", "--p2", "0.5", "--p3", "0.7", "--n", "10",
                 "--seed", "1", "--flips", sys.argv[1]])
print(code, "numpy" in sys.modules)
"""


def test_numpy_loads_only_where_arrays_are_built(tmp_path):
    """Only sample loads numpy, and only for --flips or more than
    _PLAIN_MAX flips per axis: superpose (the oracle on every path, the
    hand-over included), mean and a small sample run on plain floats."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        env=env, capture_output=True, encoding="utf-8", timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == {
        "import": False, "scalar": False, "kernels": False,
        "oracle_and_mean": False, "handover": 1,
        "sample 10": False, "sample 4096": False, "sample 4097": True,
    }
    proc = subprocess.run(
        [sys.executable, "-c", FLIPS_PROBE, str(tmp_path / "flips.csv")],
        env=env, capture_output=True, encoding="utf-8", timeout=60, check=True,
    )
    assert proc.stdout == "0 True\n"


def test_mean_near_the_float_maximum_prints_no_numpy_warning():
    """rho @ H overflows in entries the trace does not use; the mean is
    finite, so the run exits 0 with nothing on stderr."""
    argv = ["mean", "--p1", "0.8030897743664331", "--p2", "0.5562247427610042",
            "--p3", "0.2046799535196856", "--x=-1.6044439731884404e+308",
            "--y", "1.2810589408249126e+308", "--z1=-1.739041242778847e+308",
            "--z2", "1.0570772921152017e+308"]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-m", "coinqubit.cli", *argv],
        env=env, capture_output=True, encoding="utf-8", timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        '{"mean": -3.437588244578489e+307, "classical_means": '
        '{"x": -9.725811236345358e+307, "y": 1.4405441881913041e+307, '
        '"z": 4.8476788035755633e+307}}\n'
    )


THREAD_PROBE = """
import contextlib, io, json, os, sys, threading
from coinqubit import ProbabilityTriple, run_experiment
from coinqubit.cli import main

state = ["--p1", "1", "--p2", "0.5", "--p3", "0.5"]
other = ["--q1", "0.5", "--q2", "1", "--q3", "0.5"]
argvs = [
    ["check", *state],
    ["purity", *state],
    ["fidelity", *state, *other],
    ["convert", *state, "--to", "spinor"],
    ["superpose", *state, *other, "--w1", "0.5", "--w2", "1", "--w3", "0.5"],
    ["partner", *state],
    ["triada", *state],
    ["render", *state],
    ["mean", *state, "--x", "1", "--y", "2", "--z1", "3", "--z2", "-1"],
    ["sample", *state, "--n", "1000", "--seed", "7"],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in argvs:
        assert main(argv) == 0, argv
loaded = lambda: ["concurrent.futures" in sys.modules, "logging" in sys.modules]
seen = {"serial": [*loaded(), threading.active_count()]}
os.sched_getaffinity = lambda pid: {0, 1}
run_experiment(ProbabilityTriple(0.6, 0.5, 0.7), 2 * 65536, 7)
seen["parallel"] = [*loaded(), threading.active_count()]
print(json.dumps(seen))
"""


def test_serial_requests_start_no_thread():
    """Below two chunks per axis run_experiment stays in the calling thread;
    from two chunks on it joins its workers.  Neither path imports
    concurrent.futures or the logging it pulls in."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE],
        env=env, capture_output=True, encoding="utf-8", timeout=60, check=True,
    )
    expected = [False, False, 1]
    assert json.loads(proc.stdout) == {"serial": expected, "parallel": expected}
