"""Steadiness check for the benchmark: repeated runs, spreads and comparisons.

Usage, from the root of a source checkout::

    # ten runs of one workload on seeds 1..10; save the figures
    python3 perfbench/steady.py run --workload fleet_live --runs 10 --out a.json
    # compare two saved sets (e.g. the same code measured twice)
    python3 perfbench/steady.py compare a.json b.json
    # spreads of the per-layer metrics (traced runs; no bounds)
    python3 perfbench/steady.py run --workload fleet_live --runs 5 --trace 1

``run`` prints, for every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` against the metric's bound from BENCHMARK.json; a
spread at or above a third of the bound is flagged ``WIDE``, ``setup_s``
included.  Below them it prints the same runs' wall-clock figures, not
scaled to the reference speed, unflagged.  With ``--trace 1`` it does the
same for the per-layer metrics, which have no bound and are never flagged.
``compare`` names every metric whose second median is worse than the first
by more than its bound, and every seed whose release digests differ between
the sets; it also prints the median speed probe of each set (``probe_ms``
from the workload process), so a set measured on a slower machine shows as
such.
Exit status 1 means a flag was raised.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(next(line for line in lines if line.startswith("# meta "))[7:])
    return {"seed": seed, "result": result, "meta": meta}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def command_run(args) -> int:
    spec = load_spec()
    seeds = [args.first_seed + index for index in range(args.runs)]
    runs = []
    for seed in seeds:
        run = one_run(args.workload, seed, spec["run_seconds"], args.trace)
        runs.append(run)
        probe = run["meta"]["runs"][args.workload]["probe_ms"]
        print(f"seed {seed}: probe_ms={probe:.3g} "
              f"correct={run['result']['correct']} " + " ".join(
            f"{name}={entry['value']:.6g}" for name, entry in run["result"]["metrics"].items()
        ), flush=True)
    flagged = not all(run["result"]["correct"] for run in runs)
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["per_layer"] if args.trace else spec["end_to_end"]:
        values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
        row = spread(values)
        bound = metric.get("bound")
        wide = bound is not None and row["spread"] >= bound / 3
        flagged |= wide
        print(f"{metric['name']:<36} {row['median']:>12.6g} {row['q1']:>12.6g} "
              f"{row['q3']:>12.6g} {row['spread']:>8.4f} {bound if bound else '-':>6}"
              + ("  WIDE" if wide else ""))
    if not args.trace:
        # The same runs' unscaled wall-clock figures, for comparison only.
        walls = [dict(run["meta"]["runs"][args.workload]["wall"],
                      setup_s=statistics.median(
                          run["meta"]["runs"][args.workload]["setup_wall_samples"]))
                 for run in runs]
        for name in walls[0]:
            row = spread([wall[name] for wall in walls])
            print(f"{'wall ' + name:<36} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['spread']:>8.4f} {'-':>6}")
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps({"workload": args.workload, "trace": args.trace, "runs": runs}, indent=1),
            encoding="utf-8",
        )
    return 1 if flagged else 0


def command_compare(args) -> int:
    spec = load_spec()
    first, second = (json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
                     for path in (args.first, args.second))
    if first.get("trace") or second.get("trace"):
        print("compare takes untraced sets only (per-layer metrics have no bounds)")
        return 2
    flagged = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        medians = [statistics.median(run["result"]["metrics"][name]["value"]
                                     for run in data["runs"]) for data in (first, second)]
        change = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
        worse = change if metric["better"] == "lower" else -change
        disagrees = worse > metric["bound"]
        flagged |= disagrees
        print(f"{name:<20} {medians[0]:>12.6g} {medians[1]:>12.6g} {change:>+8.4f} "
              f"(bound {metric['bound']})" + ("  DISAGREES" if disagrees else ""))
    speeds = [statistics.median(run["meta"]["runs"][data["workload"]]["probe_ms"]
                                for run in data["runs"]) for data in (first, second)]
    print(f"{'probe_ms':<20} {speeds[0]:>12.6g} {speeds[1]:>12.6g} "
          f"{speeds[1] / speeds[0] - 1:>+8.4f} (the machine, not the program)")
    digests = [{run["seed"]: run["meta"]["runs"][data["workload"]]["digests"]
                for run in data["runs"]} for data in (first, second)]
    for seed in sorted(set(digests[0]) & set(digests[1])):
        if digests[0][seed] != digests[1][seed]:
            flagged = True
            print(f"seed {seed}: release digests differ between the two sets")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="repeat one workload and report spreads")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: per-layer metrics from traced runs")
    run.add_argument("--out", help="save every run's figures to this JSON file")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser("compare", help="compare two saved sets of runs")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(handler=command_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
