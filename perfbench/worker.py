"""One workload in its own process: set up, run the closed loop, check outputs.

Started by run.py with PYTHONPATH pointing at this checkout's ``src``.
Modes:

* ``setup``: build the inputs, golden outputs and warm-up, then report the
  monotonic time at which the first timed op could start;
* ``run``: the same set-up, then the untraced closed loop (one client, next
  op only after the previous one finished and was checked);
* ``trace``: half the time untraced, half traced with spans, then the layer
  probes of every workload, so that every per-layer metric is reported.

The last stdout line is one JSON object that run.py reads.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib.metadata
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from array import array
from pathlib import Path

import gen
import speed
from spans import NullTracer, Tracer

from coinqubit import (
    CoinObservable,
    ProbabilityTriple,
    SuperpositionWeights,
    classical_means,
    coins_to_complex,
    estimate,
    fidelity,
    orthogonal_partner,
    prob_to_density,
    prob_to_spinor,
    purity,
    quantum_mean,
    reconstruct,
    render_svg,
    run_experiment,
    sample_flips,
    superpose_general,
    superpose_oracle,
    superpose_orthogonal,
    superpose_spinor,
    triada_sides,
)
from coinqubit import cli

PATH_TOL = 1e-9  # every superposition path must sit this close to the oracle
SIGMAS = 6.0  # p_hat must lie within this many standard errors of the target
MIN_OPS = 100  # ten samples beyond p90
SMOKE_MIN_OPS = 5
HARD_STOP_S = 140.0  # leave room for set-up and reporting under 180 s


def log(message: str) -> None:
    sys.stderr.write(f"worker: {message}\n")


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``coinqubit.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def triple(p) -> ProbabilityTriple:
    return ProbabilityTriple(*p)


def coins(p: ProbabilityTriple) -> tuple[float, float, float]:
    return p.p1, p.p2, p.p3


def expected_mean(obs, p) -> float:
    """Sum of the three classical coin means, written out independently."""
    x, y, z1, z2 = obs
    return x * (2 * p.p1 - 1) + y * (2 * p.p2 - 1) + z1 * p.p3 + z2 * (1 - p.p3)


# ----------------------------------------------------------------- workloads

class CliOneshot:
    """Each op is one ``python -m coinqubit.cli`` subprocess."""

    name = "cli_oneshot"

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.env = dict(os.environ)
        self.env.pop(cli.SEED_ENV_VAR, None)
        self.items = []
        for index, req in enumerate(gen.cli_pool(seed, smoke)):
            req_dir = tmp / f"cli{index}"
            req_dir.mkdir()
            for file_name, text in gen.cli_files(req).items():
                (req_dir / file_name).write_text(text, encoding="utf-8")
            argv = gen.cli_argv(req, str(req_dir))
            self.items.append({"req": req, "argv": argv, **self._golden(req, argv)})
        self.input_bytes = sum(
            len(" ".join(item["argv"])) + sum(map(len, gen.cli_files(item["req"]).values()))
            for item in self.items
        )

    @staticmethod
    def _golden(req: dict, argv: list[str]) -> dict:
        """In-process output of the same argv, checked for its shape."""
        try:
            code, out, err = run_main(argv)
        except Exception as exc:  # a traceback: every op on this input fails
            log(f"golden for {argv} raised {exc!r}")
            return {"valid": False}
        valid = code == req["expect"]
        if valid and code == 0:
            valid = err == "" and (
                out.startswith("<svg") if req["sub"] == "render" else _is_json(out)
            )
        elif valid:
            valid = out == "" and set(_json_or_none(err) or {}) == {"error"}
        if not valid:
            log(f"golden for {argv} is wrong: exit {code}, stderr {err!r}")
        return {"valid": valid, "code": code, "out": out.encode(), "err": err.encode()}

    def warm_up(self) -> None:
        self.check(self.items[0], self.op(self.items[0], NullTracer()))

    def op(self, item: dict, t) -> subprocess.CompletedProcess:
        with t.span("cli.subprocess"):
            return subprocess.run(
                [sys.executable, "-m", "coinqubit.cli", *item["argv"]],
                capture_output=True, env=self.env, timeout=60,
            )

    def check(self, item: dict, proc: subprocess.CompletedProcess) -> bool:
        return (
            item["valid"]
            and proc.returncode == item["code"]
            and proc.stdout == item["out"]
            and proc.stderr == item["err"]
        )

    def working_set_bytes(self) -> int:
        return self.input_bytes + sum(
            len(item.get("out", b"")) + len(item.get("err", b"")) for item in self.items
        )

    def probe(self, t: Tracer) -> None:
        self.imports = import_probe(t, self.env)
        self.ok = [item for item in self.items if item["valid"] and item["code"] == 0]
        for item in self.ok:
            sub = item["req"]["sub"]
            with t.span(f"cli.main.{sub}"):
                run_main(item["argv"])
            with t.span(f"cli.lib.{sub}"):
                library_calls(item["req"])

    def layer_metrics(self, m: dict) -> dict:
        metrics = {
            "import.interpreter_ms": m["import.interpreter"] / 1e6,
            "import.numpy_ms": statistics.median(self.imports["numpy"]) / 1e3,
            "import.coinqubit_self_ms": statistics.median(self.imports["coinqubit"]) / 1e3,
        }
        for sub in gen.SUBCOMMANDS:
            main_ns = m[f"cli.main.{sub}"]
            metrics[f"cli.main_us.{sub}"] = main_ns / 1e3
            metrics[f"cli.overhead_us.{sub}"] = (main_ns - m[f"cli.lib.{sub}"]) / 1e3
        metrics["cli.stdout_bytes"] = statistics.fmean(len(item["out"]) for item in self.ok)
        return metrics


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _is_json(text: str) -> bool:
    return isinstance(_json_or_none(text), dict)


def library_calls(req: dict):
    """The library calls one CLI subcommand makes, without parsing or output."""
    sub = req["sub"]
    p = triple(req["p"])
    if sub == "check":
        return p.classify(), p.radius2
    if sub == "purity":
        return purity(p)
    if sub == "fidelity":
        return fidelity(p, triple(req["q"]))
    if sub == "convert":
        if req["to"] == "density":
            return prob_to_density(p).is_nonnegative
        return prob_to_spinor(p) if req["to"] == "spinor" else coins_to_complex(p)
    if sub == "superpose":
        q = triple(req["q"])
        w = SuperpositionWeights(triple(req["w"]))
        paths = [superpose_general(p, q, w), superpose_oracle(p, q, w)]
        if fidelity(p, q) < PATH_TOL:
            paths += [superpose_orthogonal(p, q, w), superpose_spinor(p, q, w)]
        return paths
    if sub == "partner":
        return orthogonal_partner(p, req["sign"])
    if sub == "triada":
        return triada_sides(p)
    if sub == "render":
        return render_svg(triada_sides(p), scale=req["scale"], labels=req["labels"])
    if sub == "sample":
        return reconstruct(run_experiment(p, req["n"], req["seed"]))
    obs = CoinObservable(*req["obs"])
    return classical_means(obs, p), quantum_mean(obs, p)


def import_probe(t: Tracer, env: dict, reps: int = 5) -> dict:
    """Spans around bare interpreter starts; ``-X importtime`` of the CLI module.

    Returns the microseconds per run that numpy took (cumulative) and that
    the coinqubit modules took (self time only).
    """
    for _ in range(reps):
        with t.span("import.interpreter"):
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    numpy_us, self_us = [], []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import coinqubit.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        numpy_total = own = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            module = fields[2].strip()
            if module == "numpy":
                numpy_total = int(fields[1])
            elif module == "coinqubit" or module.startswith("coinqubit."):
                own += int(fields[0])
        numpy_us.append(numpy_total)
        self_us.append(own)
    return {"numpy": numpy_us, "coinqubit": self_us}


class KernelsSweep:
    """Each op is one in-process superposition request plus the state functionals."""

    name = "kernels_sweep"

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.items = gen.kernels_pool(seed, smoke)
        self.general_calls = 0
        self.fallbacks = 0
        self.max_dev = 0.0
        self.svg_bytes = 0

    def warm_up(self) -> None:
        for item in self.items[:20]:
            self.check(item, self.op(item, NullTracer()))

    def op(self, item: dict, t):
        with t.span("states.triple_new"):
            p = triple(item["p"])
        q = triple(item["q"])
        w = SuperpositionWeights(triple(item["w"]))
        obs = CoinObservable(*item["obs"])
        with t.span("superposition.general"):
            general = superpose_general(p, q, w)
        with t.span("superposition.oracle"):
            oracle = superpose_oracle(p, q, w)
        paths = [general]
        if item["kind"] == "orthogonal":
            with t.span("superposition.orthogonal"):
                paths.append(superpose_orthogonal(p, q, w))
            with t.span("superposition.spinor"):
                paths.append(superpose_spinor(p, q, w))
        out = general.state
        with t.span("states.fidelity"):
            overlap = fidelity(p, q)
        with t.span("states.purity"):
            out_purity = purity(out)
        with t.span("malevich.triada"):
            sides = triada_sides(out)
        with t.span("malevich.render_svg"):
            svg = render_svg(sides)
        with t.span("observables.quantum_mean"):
            mean = quantum_mean(obs, out)
        return oracle, paths, overlap, out_purity, svg, mean

    def check(self, item: dict, result) -> bool:
        oracle, paths, overlap, out_purity, svg, mean = result
        reference = coins(oracle.state)
        dev = max(
            abs(a - b) for path in paths for a, b in zip(coins(path.state), reference)
        )
        self.general_calls += 1
        self.fallbacks += paths[0].fallback_used
        self.max_dev = max(self.max_dev, dev)
        self.svg_bytes += len(svg)
        orthogonal_ok = item["kind"] != "orthogonal" or overlap < PATH_TOL
        return (
            dev <= PATH_TOL
            and oracle.state.is_pure
            and paths[0].state.is_pure
            and abs(out_purity - 1.0) <= PATH_TOL
            and -PATH_TOL <= overlap <= 1.0 + PATH_TOL
            and orthogonal_ok
            and svg.startswith("<svg") and svg.endswith("</svg>\n")
            and abs(mean - expected_mean(item["obs"], paths[0].state)) <= PATH_TOL * (1 + abs(mean))
        )

    def working_set_bytes(self) -> int:
        return len(self.items) * (3 * 3 + 4) * 8

    def probe(self, t: Tracer) -> None:
        run_traced(self, t, self.items)
        for item in self.items:
            p = triple(item["p"])
            with t.span("states.prob_to_spinor"):
                prob_to_spinor(p)

    def layer_metrics(self, m: dict) -> dict:
        return {
            "states.triple_new_us": m["states.triple_new"] / 1e3,
            "states.fidelity_us": m["states.fidelity"] / 1e3,
            "states.prob_to_spinor_us": m["states.prob_to_spinor"] / 1e3,
            "observables.quantum_mean_us": m["observables.quantum_mean"] / 1e3,
            "superposition.general_us": m["superposition.general"] / 1e3,
            "superposition.oracle_us": m["superposition.oracle"] / 1e3,
            "superposition.orthogonal_us": m["superposition.orthogonal"] / 1e3,
            "superposition.spinor_us": m["superposition.spinor"] / 1e3,
            "superposition.fallback_ratio": self.fallbacks / self.general_calls,
            "superposition.max_dev_from_oracle": self.max_dev,
            "malevich.triada_us": m["malevich.triada"] / 1e3,
            "malevich.render_svg_us": m["malevich.render_svg"] / 1e3,
            "malevich.svg_bytes": self.svg_bytes / self.general_calls,
        }


class TomoBulk:
    """Each op is one vectorized ``run_experiment`` at a large n per axis."""

    name = "tomo_bulk"

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.items = gen.tomo_pool(self.name, seed, smoke)
        self.first_p_hat = {}

    def warm_up(self) -> None:
        self.check(self.items[0], self.op(self.items[0], NullTracer()))

    def op(self, item: dict, t):
        p = triple(item["p"])
        with t.span("tomography.run_experiment"):
            return run_experiment(p, item["n"], item["seed"])

    def check(self, item: dict, report) -> bool:
        n = item["n"]
        p_hat = coins(report.p_hat)
        first = self.first_p_hat.setdefault(item["seed"], p_hat)
        return (
            report.counts == (n, n, n)
            and report.seed == item["seed"]
            and p_hat == first
            and all(
                abs(est - target) <= SIGMAS * math.sqrt(target * (1 - target) / n)
                for est, target in zip(p_hat, item["p"])
            )
        )

    def working_set_bytes(self) -> int:
        # One float64 draw array for the axis being sampled plus the three
        # boolean outcome arrays.
        return 11 * self.items[0]["n"]

    def probe(self, t: Tracer) -> None:
        items = self.items[:3]
        run_traced(self, t, items)
        self.peaks = []
        for item in items[:2]:
            tracemalloc.start()
            self.op(item, NullTracer())
            self.peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def layer_metrics(self, m: dict) -> dict:
        n = self.items[0]["n"]
        return {
            "tomography.run_experiment_ns_per_flip": m["tomography.run_experiment"] / (3 * n),
            # Computed from the API contract, not counted: 3n draws, and
            # 8 B of float64 draw plus 1 B of outcome per flip.
            "tomography.draws": 3 * n,
            "tomography.bytes_computed": 9 * 3 * n,
            "tomography.traced_peak_mb": statistics.median(self.peaks) / 2 ** 20,
        }


class TomoStream:
    """Each op records an experiment as CSV through the CLI, then re-estimates it."""

    name = "tomo_stream"

    def __init__(self, seed: int, smoke: bool, tmp: Path):
        self.items = gen.tomo_pool(self.name, seed, smoke)
        self.csv_path = tmp / "flips.csv"

    def warm_up(self) -> None:
        self.check(self.items[0], self.op(self.items[0], NullTracer()))

    def argv(self, item: dict, flips: bool) -> list[str]:
        argv = ["sample", *(f"--p{i}={v!r}" for i, v in enumerate(item["p"], 1)),
                f"--n={item['n']}", f"--seed={item['seed']}"]
        return argv + [f"--flips={self.csv_path}"] if flips else argv

    def op(self, item: dict, t):
        with t.span("cli.main.sample_flips"):
            cli_result = run_main(self.argv(item, flips=True))
        p = triple(item["p"])
        with t.span("tomography.estimate_stream"):
            report = estimate(sample_flips(p, item["n"], item["seed"]), seed=item["seed"])
        return cli_result, report

    def check(self, item: dict, result) -> bool:
        (code, out, err), report = result
        n = item["n"]
        payload = _json_or_none(out) if code == 0 else None
        with open(self.csv_path, "rb") as handle:
            rows = handle.read().count(b"\n")
        return (
            payload is not None
            and err == ""
            and payload["p_hat"] == report.p_hat.to_json_dict()
            and payload["counts"] == {"x": n, "y": n, "z": n}
            and report.counts == (n, n, n)
            and rows == 3 * n + 1
        )

    def working_set_bytes(self) -> int:
        # Boolean outcomes, one float64 draw array, and roughly 12 CSV bytes
        # per flip.
        n = self.items[0]["n"]
        return 3 * n + 8 * n + 12 * 3 * n

    def probe(self, t: Tracer) -> None:
        items = self.items[:4]
        run_traced(self, t, items)
        for item in items:
            with t.span("cli.main.sample"):
                run_main(self.argv(item, flips=False))
            p = triple(item["p"])
            with t.span("tomography.sample_flips"):
                collections.deque(sample_flips(p, item["n"], item["seed"]), maxlen=0)
            flips = list(sample_flips(p, item["n"], item["seed"]))
            with t.span("tomography.estimate"):
                estimate(flips)

    def layer_metrics(self, m: dict) -> dict:
        flips = 3 * self.items[0]["n"]
        return {
            "tomography.sample_flips_ns_per_flip": m["tomography.sample_flips"] / flips,
            "tomography.estimate_ns_per_flip": m["tomography.estimate"] / flips,
            "cli.flips_csv_ns_per_flip":
                (m["cli.main.sample_flips"] - m["cli.main.sample"]) / flips,
        }


WORKLOADS = {cls.name: cls for cls in (CliOneshot, KernelsSweep, TomoBulk, TomoStream)}


# ---------------------------------------------------------------------- loop

def run_traced(workload, t: Tracer, items) -> None:
    for item in items:
        t.op_id += 1
        with t.span("op"):
            result = workload.op(item, t)
        workload.check(item, result)


def closed_loop(workload, t, seconds: float, min_ops: int) -> dict:
    """One client: the next op starts after the previous one is checked.

    Only the op itself is timed; checks run outside the timed region.
    """
    items = workload.items
    # Compact arrays: the loop's own bookkeeping must not grow the RSS that
    # peak_rss_mb reports by more than a few bytes per op.
    latencies, ends = array("q"), array("d")
    attempted = failed = 0
    track = speed.SpeedTrack()
    start = time.monotonic()
    while True:
        item = items[attempted % len(items)]
        t.op_id += 1
        t0 = time.perf_counter_ns()
        try:
            with t.span("op"):
                result = workload.op(item, t)
        except Exception:  # an unexpected raise is a failed op, not a crash
            log(f"op {attempted} raised:\n{traceback.format_exc()}")
            result = None
        t1 = time.perf_counter_ns()
        ends.append(time.monotonic())
        attempted += 1
        latencies.append(t1 - t0)
        if result is None or not checked(workload, item, result):
            failed += 1
        elapsed = ends[-1] - start
        if (elapsed >= seconds and attempted >= min_ops) or elapsed >= HARD_STOP_S:
            break
        track.maybe_take()
    track.take()
    return {
        "peak_rss_mb": peak_rss_mb(workload.name),
        "latencies": latencies,
        "scales": track.scales(ends),
        "attempted": attempted,
        "failed": failed,
    }


def checked(workload, item, result) -> bool:
    try:
        return workload.check(item, result)
    except Exception:  # a malformed output is a failed check
        log(f"check raised:\n{traceback.format_exc()}")
        return False


def nearest_rank(sorted_values, fraction: float):
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


def timing_metrics(latencies_ns, completed: int) -> dict:
    lat = sorted(latencies_ns)
    return {
        "ops_per_s": completed / (sum(lat) / 1e9),
        "latency_p50_ms": nearest_rank(lat, 0.5) / 1e6,
        "latency_p90_ms": nearest_rank(lat, 0.9) / 1e6,
    }


def summarize(loop: dict) -> dict:
    """Timing metrics at nominal machine speed, and as measured under ``raw``."""
    completed = loop["attempted"] - loop["failed"]
    scaled = [ns * k for ns, k in zip(loop["latencies"], loop["scales"])]
    return {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        **timing_metrics(scaled, completed),
        "raw": timing_metrics(loop["latencies"], completed),
    }


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for smoke.py")
    args = parser.parse_args()

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        log(f"coinqubit was imported from {cli.__file__}, not from {src}")
        return 2

    def make(name: str):
        workload_tmp = Path(args.tmp) / name
        workload_tmp.mkdir(parents=True, exist_ok=True)
        return WORKLOADS[name](args.seed, args.smoke, workload_tmp)

    workload = make(args.workload)
    workload.warm_up()
    ready = time.monotonic()
    result = {
        "ready": ready,
        "setup_scale": speed.scale_now(),
        "numpy": importlib.metadata.version("numpy"),
        "working_set_bytes": workload.working_set_bytes(),
    }
    min_ops = SMOKE_MIN_OPS if args.smoke else MIN_OPS
    if args.mode == "run":
        loop = closed_loop(workload, NullTracer(), args.seconds, min_ops)
        result.update(summarize(loop), peak_rss_mb=loop["peak_rss_mb"])
    elif args.mode == "trace":
        half = args.seconds / 2
        plain = summarize(closed_loop(workload, NullTracer(), half, 1))
        tracer = Tracer()
        traced = summarize(closed_loop(workload, tracer, half, 1))
        probed = [workload if name == args.workload else make(name) for name in WORKLOADS]
        for other in probed:
            other.probe(tracer)
        medians = tracer.median_self_ns()
        per_layer = {"trace.overhead_ratio": traced["ops_per_s"] / plain["ops_per_s"]}
        for other in probed:
            per_layer.update(other.layer_metrics(medians))
        if args.trace_out:
            tracer.write(args.trace_out)
        result.update(
            attempted=plain["attempted"] + traced["attempted"],
            failed=plain["failed"] + traced["failed"],
            per_layer=per_layer,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
