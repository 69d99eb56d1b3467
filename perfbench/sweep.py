"""Run the benchmark over several seeds and summarise the spread of every metric.

    python3 perfbench/sweep.py --workload kp-residue --seeds 1-10 --seconds 30
    python3 perfbench/sweep.py --workload all --seeds 1-10 --sets 2 --out perfbench/out/sweep.jsonl

For each workload and set of runs it prints, per end-to-end metric, the
median, the quartiles and the spread (q3 - q1) / median, normalised and raw,
plus the reference kernel's own time; with ``--sets 2`` it also prints how far
the second set's median moved from the first's.  This is how the reference
figures in README.md were made.  Runs are sequential: one benchmark process at
a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = {"workload": workload, "seed": seed, "wall_s": wall, "result": json.loads(lines[-1])}
    if len(lines) > 1:
        out["detail"] = json.loads(lines[-2])
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarise(runs: list[dict]) -> dict[str, list[float]]:
    table: dict[str, list[float]] = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            table.setdefault(name, []).append(m["value"])
        for name, v in run.get("detail", {}).get("raw", {}).items():
            table.setdefault(f"raw.{name}", []).append(v)
        if "detail" in run:
            table.setdefault("ref_ms", []).append(run["detail"]["ref_ms_quartiles"][1])
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload name, or 'all'; may repeat")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=None, help="append every run as a JSON line")
    args = parser.parse_args(argv)
    workloads = WORKLOADS if "all" in args.workload else args.workload
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = seeds_of(args.seeds)
    for workload in workloads:
        medians: list[dict[str, float]] = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                run = one_run(workload, seed, seconds, args.trace)
                run["set"] = s
                runs.append(run)
                if args.out:
                    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                    with open(args.out, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(run) + "\n")
            failed = [r["result"]["failed"] / r["result"]["attempted"] for r in runs]
            walls = [r["wall_s"] for r in runs]
            print(f"== {workload} set {s + 1}: {len(runs)} runs, failed share {sorted(set(failed))},"
                  f" correct {all(r['result']['correct'] for r in runs)},"
                  f" run wall {min(walls):.1f}-{max(walls):.1f} s")
            table = summarise(runs)
            medians.append({})
            for name, values in table.items():
                med, q1, q3, sp = spread(values)
                medians[-1][name] = med
                line = f"  {name:28s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {sp:7.2%}"
                if s > 0:
                    line += f"  vs set 1 {med / medians[0][name] - 1:+7.2%}"
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
