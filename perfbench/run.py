"""Benchmark parent process: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload kp-residue --seed 1 --seconds 30 --trace 0

This process never imports tauforge.  It starts one worker process at a time
(``worker.py``), which imports the program, and the two never compute at the
same time: this process runs the reference kernel (``refkernel.py``) right
before each case and then waits while the worker runs the case.  Every timed
figure is divided by the reference time measured beside it and rescaled to
the kernel's nominal time, so the figures follow the program and not the
machine's drift.

Set-up (interpreter start, import, seeded input generation, warm-up) is
measured ``SETUPS`` times with a fresh worker each time; the last worker runs
the workload in whole rounds until ``--seconds`` have passed.  With
``--trace 1`` rounds alternate untraced and traced, and the per-layer metrics
come from the traced rounds.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it holds raw (unnormalised) figures for reference.  The exit code
is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import refkernel
from workloads import WORKLOADS  # plain data; importing it does not import tauforge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 7  # fresh workers per run; setup_s is their median
REF_BLOCK = 5  # kernel calls around each set-up, median taken
WAIT_S = 120.0  # longest wait for one answer of the worker

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (span, metric suffixes) as printed by the traced run; every span also has
# self_ms when listed, and calls when listed.
LAYER_METRICS = (
    ("polycore.laurent_mul_residue", ("calls", "self_ms", "in_terms")),
    ("polycore.miwa_shift", ("calls", "self_ms", "out_terms", "distinct_ratio")),
    ("polycore.rename_family", ("calls", "self_ms")),
    ("hirota.hirota_kp_check", ("self_ms",)),
    ("hirota.hirota_mkp_check", ("calls", "self_ms")),
    ("hirota.verify_mkp_collection", ("self_ms",)),
    ("hirota.reduction_check", ("self_ms",)),
    ("hirota.akns_pde_check", ("self_ms",)),
    ("tau.det_poly", ("calls", "self_ms", "out_terms")),
    ("tau.apply_D", ("calls", "self_ms")),
    ("tau.tau_kp", ("self_ms",)),
    ("tau.tau_nkdv", ("self_ms",)),
    ("tau.tau_mkp_collection", ("self_ms",)),
    ("tau.tau_mnkdv_collection", ("self_ms",)),
    ("tau.akns_collection", ("self_ms",)),
    ("schur.elementary_schur", ("calls", "self_ms")),
    ("schur.schur_shifted", ("calls", "self_ms")),
    ("schur.schur_of_args", ("calls", "self_ms")),
    ("fock.oracle_tau", ("calls", "self_ms")),
    ("fock.evolve", ("calls", "self_ms")),
    ("cli.main", ("calls", "self_ms")),
)
COUNTERS = (
    ("hirota.checks", "count"),
    ("hirota.obstruction_terms", "count"),
    ("schur.cache_max_order", "count"),
    ("cli.output_bytes", "bytes"),
    ("trace.round_ms", "ms"),
    ("trace.overhead_pct", "%"),
)
UNITS = {"calls": "count", "self_ms": "ms", "in_terms": "count", "out_terms": "count",
         "distinct_ratio": "ratio"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in print order."""
    out = [(f"{span}.{m}", UNITS[m]) for span, ms in LAYER_METRICS for m in ms]
    return out + list(COUNTERS)


class BenchError(Exception):
    pass


class Worker:
    """One worker process and its line protocol."""

    def __init__(self, workload: str, seed: int, trace_out: Path | None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def recv(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], WAIT_S)
        if not ready:
            raise BenchError(f"the worker gave no answer within {WAIT_S:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"the worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError(f"the worker exited with code {self.proc.wait()}")
        return self.recv()

    def close(self) -> dict:
        reply = self.ask({"op": "quit"})
        self.proc.stdin.close()
        self.proc.wait(timeout=WAIT_S)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


@dataclass
class Record:
    round: int
    case: int
    ms: float
    ref_ms: float
    status: str
    msg: str
    traced: bool
    layers: dict | None


def ref_block() -> float:
    return statistics.median(refkernel.run_ms() for _ in range(REF_BLOCK))


def measure(worker: Worker, ncases: int, seconds: float, trace: bool) -> list[Record]:
    """Whole rounds of every case until ``seconds`` have passed; with ``trace``
    an even number of rounds, every second one traced.

    The kernel runs right before each case; a case's reference time is the
    mean of the kernel times just before and just after it.
    """
    records: list[Record] = []
    start = time.perf_counter()
    rnd = 0
    while True:
        traced = trace and rnd % 2 == 1
        for i in range(ncases):
            ref = refkernel.run_ms()
            reply = worker.ask({"op": "case", "i": i, "trace": traced, "keep": traced and rnd == 1})
            records.append(Record(rnd, i, reply["ms"], ref, reply["status"], reply["msg"],
                                  traced, reply.get("layers")))
        rnd += 1
        if time.perf_counter() - start >= seconds and (not trace or rnd % 2 == 0):
            after = [r.ref_ms for r in records[1:]] + [refkernel.run_ms()]
            for r, ref in zip(records, after):
                r.ref_ms = (r.ref_ms + ref) / 2.0
            return records


def timing_metrics(records, factors, setups) -> dict[str, float]:
    """End-to-end figures; ``factors`` rescale each case (all 1.0 gives raw figures)."""
    norm = [r.ms * f for r, f in zip(records, factors)]
    ok = [v for v, r in zip(norm, records) if r.status == "ok"]
    return {
        "cases_per_s": len(ok) / (sum(norm) / 1000.0),
        "case_p50_ms": statistics.median(ok) if ok else 0.0,
        "case_p90_ms": statistics.quantiles(ok, n=10)[8] if len(ok) > 1 else 0.0,
        "setup_s": statistics.median(setups) / 1000.0,
    }


def layer_metrics(records: list[Record], factors: list[float], worker_end: dict) -> dict:
    """Per-layer figures of the traced rounds: counts from the first traced
    round (they repeat exactly), times as medians over traced rounds."""
    rounds: dict[int, list[tuple[Record, float]]] = {}
    for r, f in zip(records, factors):
        rounds.setdefault(r.round, []).append((r, f))
    traced = [rnd for rnd, rs in sorted(rounds.items()) if rs[0][0].traced]
    self_ms: dict[str, list[float]] = {}
    for rnd in traced:
        totals: dict[str, float] = {}
        for r, f in rounds[rnd]:
            for name, ms in (r.layers or {}).get("self_ms", {}).items():
                totals[name] = totals.get(name, 0.0) + ms * f
        for span, _ in LAYER_METRICS:
            self_ms.setdefault(span, []).append(totals.get(span, 0.0))
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    distinct: dict[str, int] = {}
    for r, _ in rounds[traced[0]]:
        layers = r.layers or {}
        for bucket, out in (("calls", calls), ("counts", counts), ("distinct", distinct)):
            for name, v in layers.get(bucket, {}).items():
                out[name] = out.get(name, 0) + v
    values: dict[str, float] = {}
    for span, suffixes in LAYER_METRICS:
        for m in suffixes:
            if m == "calls":
                values[f"{span}.calls"] = calls.get(span, 0)
            elif m == "self_ms":
                values[f"{span}.self_ms"] = statistics.median(self_ms[span])
            elif m == "distinct_ratio":
                n = calls.get(span, 0)
                values[f"{span}.distinct_ratio"] = distinct.get(span, 0) / n if n else 0.0
            else:
                values[f"{span}.{m}"] = int(counts.get(f"{span}.{m}", 0))
    values["hirota.checks"] = int(counts.get("hirota.checks", 0))
    values["hirota.obstruction_terms"] = int(counts.get("hirota.obstruction_terms", 0))
    values["schur.cache_max_order"] = worker_end.get("schur_cache_max_order", 0)
    values["cli.output_bytes"] = int(counts.get("cli.output_bytes", 0))
    round_ms = {rnd: sum(r.ms * f for r, f in rs) for rnd, rs in rounds.items()}
    values["trace.round_ms"] = statistics.median(round_ms[rnd] for rnd in traced)
    values["trace.overhead_pct"] = 100.0 * statistics.median(
        round_ms[rnd] / round_ms[rnd - 1] - 1.0 for rnd in traced
    )
    return values


def run(args) -> dict:
    trace_out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    # The kernel must meet the processor the cases run on: with the two
    # processes free to move, the spread over seeds was three times as large.
    # The worker inherits this affinity; the two never compute at once.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for _ in range(20):  # bring the kernel to its steady speed
        refkernel.run_ms()
    setups: list[tuple[float, float]] = []
    worker = None
    try:
        for _ in range(SETUPS):
            if worker is not None:
                worker.close()
            before = ref_block()
            t0 = time.perf_counter()
            worker = Worker(args.workload, args.seed, trace_out)
            ready = worker.recv()
            wall = (time.perf_counter() - t0) * 1000.0
            setups.append((wall, (before + ref_block()) / 2.0))
        records = measure(worker, ready["cases"], args.seconds, bool(args.trace))
        worker_end = worker.close()
    finally:
        if worker is not None:
            worker.kill()
    if "tauforge" in sys.modules:
        raise BenchError("the parent process imported tauforge; the reference kernel is no longer independent")

    factors = [refkernel.NOMINAL_MS / r.ref_ms for r in records]
    failures = [r for r in records if r.status != "ok"]
    for r in failures[:5]:
        print(f"{r.status}: {r.msg}", file=sys.stderr)
    result = {
        "correct": not any(r.status == "wrong" for r in records),
        "attempted": len(records),
        "failed": len(failures),
    }
    if args.trace:
        values = layer_metrics(records, factors, worker_end)
        units = dict(per_layer_names())
    else:
        values = timing_metrics(records, factors,
                                [w * refkernel.NOMINAL_MS / ref for w, ref in setups])
        values["peak_rss_mb"] = worker_end["rss_kb"] / 1024.0
        units = dict(END_TO_END)
        raw = timing_metrics(records, [1.0] * len(records), [w for w, _ in setups])
        print(json.dumps({
            "raw": raw,
            "ref_ms_quartiles": statistics.quantiles([r.ref_ms for r in records], n=4),
            "rounds": records[-1].round + 1,
            "cases_per_round": len(records) // (records[-1].round + 1),
        }))
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "tauforge" / "__init__.py").is_file():
        print(f"error: no tauforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
