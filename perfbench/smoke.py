"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that the seeded generator is deterministic, that every workload
runs in both modes with no failed op, that the traced mode reports exactly
the per-layer metrics listed in BENCHMARK.json, and that run.py refuses to
run where there is no ``src/coinqubit``.  It is a script, not a test module
under ``tests/``, so the tier-1 pytest run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import gen

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def check_generator() -> None:
    for workload in ("cli_oneshot", "kernels_sweep", "tomo_bulk", "tomo_stream"):
        first = gen.pool(workload, 7, smoke=True)
        assert first == gen.pool(workload, 7, smoke=True), workload
        assert first != gen.pool(workload, 8, smoke=True), workload
    requests = gen.cli_pool(7)
    assert {req["sub"] for req in requests} == set(gen.SUBCOMMANDS)
    assert gen.cli_argv(requests[0], "d") == gen.cli_argv(gen.cli_pool(7)[0], "d")


def run_worker(workload: str, mode: str, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--mode", mode,
         "--tmp", str(tmp / f"{workload}-{mode}"), "--smoke"],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def check_refuses_without_package(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "tomo_bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == "", proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    tmp = ROOT / ".perfbench" / f"smoke-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        check_generator()
        for workload in (w["name"] for w in spec["workloads"]):
            for mode in ("run", "trace"):
                result = run_worker(workload, mode, tmp)
                assert result["failed"] == 0 and result["attempted"] > 0, (workload, mode)
                if mode == "trace":
                    missing = per_layer ^ set(result["per_layer"])
                    assert not missing, (workload, sorted(missing))
                print(f"ok {workload} {mode}: error_rate 0 over {result['attempted']} ops")
        check_refuses_without_package(tmp)
        print("ok refuses to run without src/coinqubit")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
