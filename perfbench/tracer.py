"""Spans and counts at tauforge's layer boundaries, recorded from outside.

``Tracer.install`` wraps each public function in ``LAYERS`` under every name a
caller looks it up by: every attribute of every loaded ``tauforge`` module
that is the function itself, so ``tauforge.hirota.miwa_shift``,
``tauforge.tau.det_poly`` and ``tauforge.cli.oracle_tau`` all record.  A span
is (name, start, end, parent); spans stay in memory and are written out at
the end.  A span's self time is its duration minus the durations of its
direct children.  A function missing from the program records nothing and
its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (span name, module, attribute), in the order metrics are printed.
LAYERS = (
    ("polycore.laurent_mul_residue", "tauforge.polycore", "laurent_mul_residue"),
    ("polycore.miwa_shift", "tauforge.polycore", "miwa_shift"),
    ("polycore.rename_family", "tauforge.polycore", "rename_family"),
    ("hirota.hirota_kp_check", "tauforge.hirota", "hirota_kp_check"),
    ("hirota.hirota_mkp_check", "tauforge.hirota", "hirota_mkp_check"),
    ("hirota.verify_mkp_collection", "tauforge.hirota", "verify_mkp_collection"),
    ("hirota.reduction_check", "tauforge.hirota", "reduction_check"),
    ("hirota.akns_pde_check", "tauforge.hirota", "akns_pde_check"),
    ("tau.det_poly", "tauforge.tau", "det_poly"),
    ("tau.apply_D", "tauforge.tau", "apply_D"),
    ("tau.tau_kp", "tauforge.tau", "tau_kp"),
    ("tau.tau_nkdv", "tauforge.tau", "tau_nkdv"),
    ("tau.tau_mkp_collection", "tauforge.tau", "tau_mkp_collection"),
    ("tau.tau_mnkdv_collection", "tauforge.tau", "tau_mnkdv_collection"),
    ("tau.akns_collection", "tauforge.tau", "akns_collection"),
    ("schur.elementary_schur", "tauforge.schur", "elementary_schur"),
    ("schur.schur_shifted", "tauforge.schur", "schur_shifted"),
    ("schur.schur_of_args", "tauforge.schur", "schur_of_args"),
    ("fock.oracle_tau", "tauforge.fock", "oracle_tau"),
    ("fock.evolve", "tauforge.fock", "evolve"),
    ("cli.main", "tauforge.cli", "main"),
)

CHECKS = {"hirota.hirota_kp_check", "hirota.hirota_mkp_check",
          "hirota.reduction_check", "hirota.akns_pde_check"}


def term_count(obj) -> int:
    """Terms of a Poly, a Laurent series of Polys, or a sequence of either."""
    terms = getattr(obj, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    coeffs = getattr(obj, "coeffs", None)
    if isinstance(coeffs, dict):
        return sum(term_count(p) for p in coeffs.values())
    if isinstance(obj, (list, tuple)):
        return sum(term_count(x) for x in obj)
    return 0


def _content_key(poly, *rest):
    terms = getattr(poly, "terms", None)
    body = frozenset(terms.items()) if isinstance(terms, dict) else id(poly)
    return (body,) + rest


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.patched: list[tuple[object, str, object]] = []

    # -- installation

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tauforge" or name.startswith("tauforge."))]
        for span, modname, attr in LAYERS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self.patched):
            setattr(mod, key, original)
        self.patched.clear()

    def _wrap(self, span: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [span, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            self._count(span, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def _count(self, span: str, args, result) -> None:
        counts = self.counts
        if span == "polycore.laurent_mul_residue":
            counts[span + ".in_terms"] += term_count(args[0]) if args else 0
        elif span == "polycore.miwa_shift":
            counts[span + ".out_terms"] += term_count(result)
            self.keys[span].add(_content_key(*args) if args else None)
        elif span == "tau.det_poly":
            counts[span + ".out_terms"] += term_count(result)
        elif span in CHECKS:
            counts["hirota.checks"] += 1
            counts["hirota.obstruction_terms"] += term_count(getattr(result, "obstruction", None))

    # -- results of one case

    def take(self) -> tuple[dict, list[list]]:
        """Per-layer self time (ms), calls and counts since the last take, and the spans."""
        spans = list(self.spans)
        self.spans.clear()
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in spans:
            dur = (end - start) * 1000.0
            self_ms[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_ms[spans[parent][0]] -= dur
        stats = {"self_ms": dict(self_ms), "calls": dict(calls), "counts": dict(self.counts),
                 "distinct": {k: len(v) for k, v in self.keys.items()}}
        self.counts.clear()
        self.keys.clear()
        return stats, spans
