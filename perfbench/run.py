"""coinqubit benchmark: one workload per call, each in its own process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels_sweep --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout.  Set-up (imports,
input generation, golden outputs, warm-up) is repeated in several fresh
processes and ``setup_s`` is their median; one further process runs the
timed closed loop.  Timings are rescaled to a nominal machine speed (see
speed.py); the raw wall-clock values are printed in the provenance line.
With ``--trace 1`` the worker instead reports the per-layer metrics.
Human-readable lines go first; the last stdout line is the JSON result.
Results and span dumps are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_oneshot", "kernels_sweep", "tomo_bulk", "tomo_stream")
SETUP_ONLY_RUNS = 4  # plus the set-up of the measuring process itself
DEADLINE_S = 170.0


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout at ``root``, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _size_bytes(text: str) -> int | None:
    match = re.match(r"\s*([\d.]+)\s*([KMG])i?B?", text)
    if not match:
        return None
    return int(float(match.group(1)) * 1024 ** " KMG".index(match.group(2)))


def cache_sizes() -> dict:
    """L2 and L3 sizes as ``lscpu`` prints them (totals over instances)."""
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, LC_ALL="C"),
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in text.splitlines():
        name, _, value = line.partition(":")
        if name.strip() in ("L2 cache", "L3 cache"):
            key = name.strip().split()[0]
            caches[key] = value.strip()
            caches[f"{key}_bytes"] = _size_bytes(value)
    return caches


def provenance(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_sha256(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **cache_sizes(),
    }


def worker(args, mode: str, root: Path, tmp: Path, env: dict, deadline: float) -> dict:
    """Run one worker process; return its result with its set-up time added."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--tmp", str(tmp),
    ]
    if mode == "trace":
        cmd += ["--trace-out", str(root / ".perfbench" / f"trace-{args.workload}.csv")]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - spawned
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "coinqubit" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from a checkout root with src/coinqubit\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tmp = out_dir / f"tmp-{os.getpid()}"
    header = provenance(root)

    try:
        if args.trace:
            runs = [worker(args, "trace", root, tmp, env, deadline)]
        else:
            runs = [
                worker(args, "setup", root, tmp / str(i), env, deadline)
                for i in range(SETUP_ONLY_RUNS)
            ]
            runs.append(worker(args, "run", root, tmp / "run", env, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    final = runs[-1]
    header.update(
        numpy=final["numpy"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        working_set_bytes=final["working_set_bytes"],
    )
    if args.trace:
        values = final["per_layer"]
    else:
        values = final
        final["setup_s"] = statistics.median(run["setup_s"] for run in runs)
        final["raw"]["setup_s"] = statistics.median(run["raw_setup_s"] for run in runs)
        header["raw_wall_clock"] = final["raw"]
    missing = units.keys() - values.keys()
    if missing:
        sys.stderr.write(f"perfbench: worker did not report {sorted(missing)}\n")
        return 3
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": final["failed"] == 0,
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": metrics,
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": header, **result}, indent=1) + "\n"
    )
    print("provenance " + json.dumps(header))
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate = {final['failed'] / final['attempted']:.6g} "
          f"({final['failed']} failed of {final['attempted']} attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
