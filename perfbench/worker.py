"""Worker process: imports tauforge, builds one workload's cases and runs them on request.

Started by ``run.py``, never by hand.  It prints one JSON line when set-up
(import, seeded input generation, input files, warm-up) is done, then answers
each request line on stdin with one JSON line:

    {"op": "case", "i": 3, "trace": false}  ->  {"ms": ..., "status": "ok", ...}
    {"op": "quit"}                          ->  {"rss_kb": ...}

Only the program calls of a case are timed.  The first time a case runs its
result is checked against the exact computations; later runs must reproduce
the first run's fingerprint.  Anything the program prints goes to stderr, so
the protocol stream carries nothing else.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _warm_up(runner: workloads.Runner, cases: list[workloads.Case]) -> None:
    """Run the first true case of each kind once, filling the Schur and
    exp-series caches to the orders every case of that kind needs."""
    seen = set()
    for i, case in enumerate(cases):
        if case.kind not in seen and not case.control:
            seen.add(case.kind)
            try:
                runner.run(i, case)
            except Exception:  # the timed run of this case reports it as failed
                pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work")
    try:
        cases = workloads.generate(args.workload, args.seed)
        runner = workloads.Runner(cases, args.seed, workdir)
        _warm_up(runner, cases)
        send({"ready": True, "cases": len(cases)})
        serve(runner, cases, send, args.trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def serve(runner: workloads.Runner, cases: list[workloads.Case], send, trace_out) -> None:
    tracer = Tracer()
    fingerprints: dict[int, object] = {}
    kept_spans: list[dict] = []
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "quit":
            if trace_out and kept_spans:
                _write_spans(trace_out, kept_spans)
            send({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "schur_cache_max_order": _schur_cache_order()})
            return
        i, traced = msg["i"], msg["trace"]
        case = cases[i]
        if traced and not tracer.patched:
            tracer.install()
        elif not traced and tracer.patched:
            tracer.uninstall()
        reply = {"status": "ok", "msg": ""}
        # Every case starts from an empty collector, so the collections that
        # fall inside it do not depend on what ran before.
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = runner.run(i, case)
        except Exception as exc:  # the program raised: the case failed
            reply["ms"] = (time.perf_counter() - t0) * 1000.0
            reply.update(status="failed", msg=f"{type(exc).__name__}: {exc}")
            result = None
        else:
            reply["ms"] = (time.perf_counter() - t0) * 1000.0
        if traced:
            stats, spans = tracer.take()
            if result is not None and case.kind not in workloads.LIBRARY_KINDS:
                stats["counts"]["cli.output_bytes"] = len(result[1].encode())
            reply["layers"] = stats
            if msg.get("keep"):
                kept_spans.extend(
                    {"case": case.name, "span": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                    for s in spans
                )
        if result is not None:
            reply.update(_verify(runner, i, case, result, fingerprints))
        send(reply)


def _verify(runner, i, case, result, fingerprints) -> dict:
    if runner.checks(case, result) == 0:
        return {"status": "failed", "msg": "the case performed no checks or printed nothing"}
    try:
        fp = runner.fingerprint(case, result)
        if i not in fingerprints:
            runner.check(case, result)
            fingerprints[i] = fp
        elif fingerprints[i] != fp:
            raise workloads.CaseError("result differs from the first round's")
    except Exception as exc:
        return {"status": "wrong", "msg": f"{case.name}: {type(exc).__name__}: {exc}"}
    return {}


def _schur_cache_order() -> int:
    """Highest order held in the Schur cache (0 if the program has none)."""
    cache = getattr(sys.modules.get("tauforge.schur"), "_SCHUR_CACHE", None)
    try:
        return max((len(table) - 1 for table in cache.values()), default=0)
    except (AttributeError, TypeError):
        return 0


def _write_spans(path: str, spans: list[dict]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
