"""Benchmark runner for the PrivHP reproduction (see perfbench/DESIGN.md).

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

For one run the runner generates the workload's inputs from ``--seed``
(untimed), starts the workload process ``perfbench/worker.py`` once to
measure for ``--seconds`` and, untraced, twice more around it to time
set-up, and prints a table, a
``# meta`` line with the machine and load, and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  Everything it writes stays under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["oneshot", "fleet_live", "http_query"]
#: Seed used when none is given, and the seed kept out of tuning for the
#: "claim holds on an unseen seed" check.
DEFAULT_SEED = 1
HELDOUT_SEED = 977
#: Set-up is timed in fresh workload processes, this many before the
#: measured one and as many after it (whose own set-up also counts), so the
#: median spans the run rather than a few seconds of the machine's speed.
SETUP_RUNS_EACH_SIDE = 1
CHILD_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_child(command: list[str], env: dict, timeout: float) -> dict:
    """Run a workload process in its own process group; return its last JSON line."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                             text=True, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{command[2:4]} did not finish within {timeout} s") from None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # anything it left behind
        except ProcessLookupError:
            pass
    if child.returncode != 0:
        raise RuntimeError(f"{command[2:4]} exited with code {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def machine(seed: int) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False)
        commit = result.stdout.strip() or None
    return {"nproc": nproc(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate inputs, time set-up, measure; return the worker's result."""
    from inputs import MAKERS

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_root))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [part for part in [env.get("PYTHONPATH")] if part]
    )
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--inputs", str(directory)]
    try:
        extra = (min(nproc(), 2),) if workload == "http_query" else ()
        plan = MAKERS[workload](directory, seed, *extra)
        (directory / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        load_before = os.getloadavg()
        setups = []

        def time_setups() -> None:
            for _ in range(0 if trace else SETUP_RUNS_EACH_SIDE):
                setups.append(run_child(command + ["--setup-only"], env, 60))

        time_setups()
        result = run_child(command + ["--seconds", str(seconds), "--trace", str(trace)],
                           env, CHILD_TIMEOUT_S)
        setups.append(result)
        time_setups()
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    # ``setups`` holds ``result`` itself, so read every sample before
    # ``result["setup_s"]`` becomes their median.
    samples = [setup["setup_s"] for setup in setups]
    result["setup_wall_samples"] = [setup["setup_wall_s"] for setup in setups]
    result["setup_samples"] = samples
    result["setup_s"] = statistics.median(samples)
    result["load"] = {"before": load_before, "after": load_after,
                      "overloaded": max(load_before[0], load_after[0]) > nproc()}
    return result


def report(workload: str, result: dict, metrics: list[dict], trace: int) -> dict:
    """Print one workload's table; return its metric values."""
    values = {}
    print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'}; "
          f"{result['operations']} operations, {result['attempted']} checks)")
    for metric in metrics:
        name = metric["name"]
        value = result["per_layer"][name] if trace else result[name]
        values[name] = {"value": value, "unit": metric["unit"]}
        print(f"  {name:<36} {value:>16.6g} {metric['unit']}")
    if not trace:
        wall = dict(result["wall"], setup_s=statistics.median(result["setup_wall_samples"]))
        print("  wall clock, not scaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in wall.items()))
    for problem in result["problems"]:
        print(f"  ! {problem}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; keep {HELDOUT_SEED} "
                        "unused while tuning a change, to confirm its claim on)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no source checkout (src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    output = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    meta = {"machine": machine(args.seed), "runs": {}}
    for workload in workloads:
        started = time.perf_counter()
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        values = report(workload, result, metrics, args.trace)
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        output["metrics"].update({prefix + name: value for name, value in values.items()})
        output["attempted"] += result["attempted"]
        output["failed"] += result["failed"]
        output["correct"] = output["correct"] and result["failed"] == 0 and all(
            math.isfinite(value["value"]) for value in values.values()
        )
        meta["runs"][workload] = {
            "wall_s": time.perf_counter() - started,
            "samples": result["samples"],
            "setup_samples": result["setup_samples"],
            "setup_wall_samples": result["setup_wall_samples"],
            "wall": result["wall"],
            "probe_ms": result["probe_ms"],
            "load": result["load"],
            "digests": result["digests"],
        }
        if result["load"]["overloaded"]:
            print(f"  ! load average above nproc during {workload}: {result['load']}")
    print("# meta " + json.dumps(meta))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
