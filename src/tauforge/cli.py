"""Command-line front end.

Construction subcommands print a polynomial or a charge-labelled collection;
verification subcommands run exact identity checks and use the exit code to
report the verdict.  Exit status: 0 success / all checks pass, 1 at least
one check failed, 2 invalid input or a verification or oracle comparison
that ran no checks (one-line diagnostic on stderr), 141 (128 + SIGPIPE)
when the reader of standard output closed it early.

File formats (all JSON, rationals as integers or strings like "-3/4"):

  shift file        object mapping a 1-based column label (tau-kp) or a
                    residue class 0..n-1 (tau-nkdv) to an array of rationals;
                    the string "zero" is accepted instead of an array, and
                    the whole --shifts argument may be the literal "zero".
  specs file        {"specs": [column, ...]} where a column is an array with
                    one term object per component:
                    {"degree": 3, "coeff": "1/2", "shift": ["0", "1"]}
                    (coeff defaults to 1, shift to zero; null marks an
                    absent component).
  profile file      {"n_parts": [2, 1], "specs": [column, ...]} with the
                    same column format.
  case file         one object or an array of objects, each either
                    {"kind": "kp", "partition": [2, 1], "shifts": {...}} or
                    {"kind": "mkp", "specs": [column, ...], "charges": [[2, 0]]}
                    (charges defaults to the whole polyhedron level).

The environment variable TAUFORGE_MAX_DEGREE (default 64) caps the weighted
degree of any requested construction; exceeding it is an input error.

The argument parser is built once per process, on the first ``main`` call,
and every later call reuses it: building the nine subcommands costs about as
much as a small construction.  Parsing only reads the parser and returns a
fresh namespace, so the shared parser is safe to reuse, from any thread.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import cache
from typing import Sequence

from .fock import (
    generator_from_hspec, generators_from_partition, oracle_tau, wedge_from_generators, wedge_tau,
)
from .hirota import (
    VerificationReport,
    akns_pde_check,
    hirota_kp_check,
    reduction_check,
    verify_mkp_collection,
)
from .partitions import Partition, enumerate_n_periodic, expected_shift_lengths
from .polycore import Poly
from .schur import elementary_schur
from .tau import (
    HSpec,
    KdVProfile,
    TauCollection,
    akns_collection,
    akns_tau,
    charge_vectors,
    tau_kp,
    tau_mkp_collection,
    tau_mkp_entries,
    tau_mkp_entry,
    tau_mnkdv_collection,
    tau_mnkdv_entry,
    tau_nkdv,
)

DEFAULT_MAX_DEGREE = 64


class UsageError(Exception):
    """Invalid input; the message becomes the one-line diagnostic."""


# -- input parsing ---------------------------------------------------------------


def max_degree_cap() -> int:
    raw = os.environ.get("TAUFORGE_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"TAUFORGE_MAX_DEGREE must be an integer, got {raw!r}")
    if cap < 0:
        raise UsageError("TAUFORGE_MAX_DEGREE must be >= 0")
    return cap


def guard_degree(bound: int) -> None:
    cap = max_degree_cap()
    if bound > cap:
        raise UsageError(
            f"weighted degree {bound} exceeds the cap {cap};"
            " raise TAUFORGE_MAX_DEGREE to allow it"
        )


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise UsageError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise UsageError(f"floats are not exact; write {value!r} as a string fraction")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"not a rational: {value!r}")
    raise UsageError(f"not a rational: {value!r}")


def parse_rational_csv(text: str) -> list[Fraction]:
    if text.strip() == "zero":
        return []
    return [parse_rational(piece.strip()) for piece in text.split(",")]


def parse_partition(text: str) -> Partition:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if body == "":
        return Partition()
    try:
        parts = tuple(int(piece) for piece in body.split(","))
    except ValueError:
        raise UsageError(f"not a partition: {text!r}")
    try:
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(str(exc))


def parse_charge(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise UsageError(f"not a charge vector: {text!r}")


def load_json_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")


def parse_shift_entries(value) -> list[Fraction]:
    if value == "zero":
        return []
    if not isinstance(value, list):
        raise UsageError(f"shift value must be an array or \"zero\", got {value!r}")
    return [parse_rational(x) for x in value]


def load_shift_map(raw, low: int, high: int, what: str) -> dict[int, list[Fraction]]:
    """Shift-file object -> {label: entries}, labels restricted to low..high."""
    if not isinstance(raw, dict):
        raise UsageError(f"{what} shift file must be a JSON object")
    out: dict[int, list[Fraction]] = {}
    for key, value in raw.items():
        try:
            label = int(key)
        except ValueError:
            raise UsageError(f"{what} label must be an integer, got {key!r}")
        if not low <= label <= high:
            raise UsageError(f"{what} label {label} outside {low}..{high}")
        out[label] = parse_shift_entries(value)
    return out


def column_shifts_from_arg(arg: str | None, m: int) -> list[list[Fraction]] | None:
    """--shifts for tau-kp: None/'zero', or a file keyed by column 1..m."""
    if arg is None or arg == "zero":
        return None
    table = load_shift_map(load_json_file(arg), 1, m, "column")
    return [table.get(j, []) for j in range(1, m + 1)]


def class_shifts_from_arg(arg: str | None, n: int) -> dict[int, list[Fraction]] | None:
    if arg is None or arg == "zero":
        return None
    return load_shift_map(load_json_file(arg), 0, n - 1, "residue class")


def parse_one_spec(column) -> HSpec:
    if not isinstance(column, list) or not column:
        raise UsageError("each spec column must be a non-empty array of term objects")
    triples = []
    for item in column:
        if item is None:
            triples.append((1, Fraction(0), None))
            continue
        if not isinstance(item, dict):
            raise UsageError(f"spec term must be an object or null, got {item!r}")
        unknown = set(item) - {"degree", "coeff", "shift"}
        if unknown:
            raise UsageError(f"unknown spec term fields: {sorted(unknown)}")
        degree = item.get("degree", 1)
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise UsageError(f"degree must be a positive integer, got {degree!r}")
        coeff = parse_rational(item.get("coeff", 1))
        shift = parse_shift_entries(item.get("shift", []))
        triples.append((degree, coeff, shift))
    try:
        return HSpec.make(triples)
    except ValueError as exc:
        raise UsageError(str(exc))


def parse_specs_obj(data) -> list[HSpec]:
    declared = None
    if isinstance(data, dict):
        raw = data.get("specs")
        declared = data.get("ncomp")
        if raw is None:
            raise UsageError("specs file needs a \"specs\" array")
    else:
        raw = data
    if not isinstance(raw, list) or not raw:
        raise UsageError("specs must be a non-empty array of columns")
    specs = [parse_one_spec(column) for column in raw]
    ncomp = specs[0].ncomp
    if any(spec.ncomp != ncomp for spec in specs):
        raise UsageError("all spec columns must list the same number of components")
    if declared is not None:
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise UsageError(f"ncomp must be an integer, got {declared!r}")
        if declared != ncomp:
            raise UsageError(f"declared ncomp {declared} does not match columns ({ncomp})")
    return specs


def parse_profile_obj(data) -> KdVProfile:
    if not isinstance(data, dict):
        raise UsageError("profile file must be a JSON object")
    raw_parts = data.get("n_parts")
    if not isinstance(raw_parts, list) or not raw_parts:
        raise UsageError("profile needs a non-empty \"n_parts\" array")
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in raw_parts):
        raise UsageError("n_parts entries must be integers")
    raw_specs = data.get("specs")
    if raw_specs is None:
        raise UsageError("profile needs a \"specs\" array")
    specs = parse_specs_obj(raw_specs)
    try:
        return KdVProfile(tuple(raw_parts), tuple(specs))
    except ValueError as exc:
        raise UsageError(str(exc))


def spec_degree_bound(specs: Sequence[HSpec]) -> int:
    return sum(
        max(term.degree for term in spec.terms if term.coeff) for spec in specs
    )


def profile_degree_bound(profile: KdVProfile) -> int:
    return sum(
        (k + 1) * max(term.degree for term in spec.terms if term.coeff)
        for spec, k in zip(profile.specs, profile.k_values())
    )


def random_shift_vector(rng: random.Random, length: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]


# -- output ----------------------------------------------------------------------


def emit(args, lines: list[str], obj) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def poly_payload(p: Poly) -> dict:
    return {"text": str(p), "poly": p.to_json_obj()}


def collection_lines(coll: TauCollection) -> list[str]:
    return [
        f"tau[{','.join(str(x) for x in label)}] = {coll.entries[label]}"
        for label in coll.labels()
    ]


def finish_verify(args, reports: list[VerificationReport]) -> int:
    if not reports:
        raise UsageError("no checks were run; nothing was verified")
    ok = all(r.passed for r in reports)
    lines = [str(r) for r in reports]
    failed = sum(1 for r in reports if not r.passed)
    if ok:
        lines.append(f"all {len(reports)} checks passed")
    else:
        lines.append(f"{failed} of {len(reports)} checks FAILED")
    obj = {
        "pass": ok,
        "reports": [r.to_json_obj(include_timing=args.timings) for r in reports],
    }
    emit(args, lines, obj)
    return 0 if ok else 1


# -- subcommand handlers -----------------------------------------------------------


def cmd_schur(args) -> int:
    if args.j < 0:
        raise UsageError("the index must be >= 0")
    if args.component < 1:
        raise UsageError("--component must be >= 1")
    guard_degree(args.j)
    p = elementary_schur(args.j, component=args.component, ncomp=args.component)
    emit(args, [str(p)], poly_payload(p))
    return 0


def cmd_tau_kp(args) -> int:
    p = parse_partition(args.partition)
    guard_degree(p.size)
    shifts = column_shifts_from_arg(args.shifts, len(p))
    tau = tau_kp(p, shifts)
    emit(args, [str(tau)], poly_payload(tau))
    return 0


def cmd_tau_mkp(args) -> int:
    specs = parse_specs_obj(load_json_file(args.specs))
    guard_degree(spec_degree_bound(specs))
    if args.charge is not None:
        charge = parse_charge(args.charge)
        tau = tau_mkp_entry(specs, charge)
        emit(args, [str(tau)], poly_payload(tau))
        return 0
    coll = tau_mkp_collection(specs)
    emit(args, collection_lines(coll), coll.to_json_obj())
    return 0


def cmd_tau_nkdv(args) -> int:
    p = parse_partition(args.partition)
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    guard_degree(p.size)
    shifts = class_shifts_from_arg(args.shifts, args.n)
    tau = tau_nkdv(p, args.n, shifts)
    emit(args, [str(tau)], poly_payload(tau))
    return 0


def cmd_tau_mnkdv(args) -> int:
    profile = parse_profile_obj(load_json_file(args.profile))
    guard_degree(profile_degree_bound(profile))
    if args.charge is not None:
        charge = parse_charge(args.charge)
        if len(charge) != profile.ncomp:
            raise UsageError(f"charge must have {profile.ncomp} parts")
        tau = tau_mnkdv_entry(profile, charge)
        emit(args, [str(tau)], poly_payload(tau))
        return 0
    coll = tau_mnkdv_collection(profile)
    emit(args, collection_lines(coll), coll.to_json_obj())
    return 0


def _akns_params(args) -> dict:
    if args.m1 < 1 or args.m2 < 1:
        raise UsageError("--m1 and --m2 must be >= 1")
    big_k = args.k if args.k is not None else max(args.m1, args.m2)
    if big_k < 1:
        raise UsageError("--k must be >= 1")
    guard_degree(big_k * max(args.m1, args.m2))
    return {
        "m1": args.m1,
        "m2": args.m2,
        "b1": parse_rational(args.b1),
        "b2": parse_rational(args.b2),
        "c1": parse_rational_csv(args.c1),
        "c2": parse_rational_csv(args.c2),
        "big_k": big_k,
    }


def cmd_akns(args) -> int:
    ps = _akns_params(args)
    if args.p is not None:
        if not 0 <= args.p <= ps["big_k"]:
            raise UsageError(f"--p must lie in 0..{ps['big_k']}, got {args.p}")
        tau = akns_tau(
            ps["m1"], ps["m2"], ps["b1"], ps["b2"], ps["c1"], ps["c2"], ps["big_k"], args.p
        )
        emit(args, [str(tau)], poly_payload(tau))
        return 0
    coll = akns_collection(
        ps["m1"], ps["m2"], ps["b1"], ps["b2"], ps["c1"], ps["c2"], ps["big_k"]
    )
    emit(args, collection_lines(coll), coll.to_json_obj())
    return 0


def cmd_list_periodic(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    if args.max_size < 0:
        raise UsageError("--max-size must be >= 0")
    guard_degree(args.max_size)
    found = enumerate_n_periodic(args.n, args.max_size)
    lines = [",".join(str(x) for x in p.parts) if p.parts else "()" for p in found]
    obj = {"n": args.n, "max_size": args.max_size, "partitions": [list(p) for p in found]}
    emit(args, lines, obj)
    return 0


def _kp_shift_sets(args, p: Partition) -> list[list[list[Fraction]] | None]:
    if args.shifts is None or args.shifts == "zero":
        return [None]
    if args.shifts == "random":
        rng = random.Random(args.seed)
        lengths = expected_shift_lengths(p)
        return [
            [random_shift_vector(rng, length) for length in lengths]
            for _ in range(args.trials)
        ]
    return [column_shifts_from_arg(args.shifts, len(p))]


def _verify_kp(args) -> int:
    if args.partition is None:
        raise UsageError("verify --what kp needs --partition")
    p = parse_partition(args.partition)
    guard_degree(p.size)
    n = args.n if args.n is not None else 1
    reports = []
    for shifts in _kp_shift_sets(args, p):
        tau = tau_kp(p, shifts)
        reports.append(hirota_kp_check(tau, j=args.j, n=n))
    return finish_verify(args, reports)


def _check_depths(args, with_hirota: bool) -> None:
    if with_hirota and args.j_max < 0:
        raise UsageError("--j-max must be >= 0")
    if args.d_max < 1:
        raise UsageError("--d-max must be >= 1")


def _verify_nkdv(args) -> int:
    if args.partition is None or args.n is None:
        raise UsageError("verify --what nkdv needs --partition and --n")
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    _check_depths(args, with_hirota=True)
    p = parse_partition(args.partition)
    guard_degree(p.size)
    shift_sets: list[dict[int, list[Fraction]] | None]
    if args.shifts is None or args.shifts == "zero":
        shift_sets = [None]
    elif args.shifts == "random":
        rng = random.Random(args.seed)
        lengths = expected_shift_lengths(p)
        width = max(lengths, default=0)
        shift_sets = [
            {k: random_shift_vector(rng, width) for k in range(args.n)}
            for _ in range(args.trials)
        ]
    else:
        shift_sets = [class_shifts_from_arg(args.shifts, args.n)]
    reports = []
    for shifts in shift_sets:
        tau = tau_nkdv(p, args.n, shifts)
        reports.append(reduction_check(tau, (args.n,), j_max=args.d_max))
        for j in range(args.j_max + 1):
            reports.append(hirota_kp_check(tau, j=j, n=args.n))
    return finish_verify(args, reports)


def _verify_mkp(args) -> int:
    if args.specs is None:
        raise UsageError("verify --what mkp needs --specs")
    specs = parse_specs_obj(load_json_file(args.specs))
    guard_degree(spec_degree_bound(specs))
    coll = tau_mkp_collection(specs)
    return finish_verify(args, verify_mkp_collection(coll))


def _verify_mnkdv(args, with_hirota: bool) -> int:
    if args.profile is None:
        raise UsageError(f"verify --what {args.what} needs --profile")
    profile = parse_profile_obj(load_json_file(args.profile))
    guard_degree(profile_degree_bound(profile))
    _check_depths(args, with_hirota)
    coll = tau_mnkdv_collection(profile)
    reports = [
        reduction_check(coll.entries[label], profile.n_parts, j_max=args.d_max)
        for label in coll.labels()
    ]
    if with_hirota:
        reports.extend(
            verify_mkp_collection(
                coll, n_parts=profile.n_parts, j_values=tuple(range(args.j_max + 1))
            )
        )
    return finish_verify(args, reports)


def _verify_akns(args) -> int:
    if args.m1 is None or args.m2 is None:
        raise UsageError("verify --what akns needs --m1 and --m2")
    ps = _akns_params(args)
    if ps["big_k"] < 2:
        raise UsageError("the differential check needs K >= 2 (two lattice neighbors)")
    coll = akns_collection(
        ps["m1"], ps["m2"], ps["b1"], ps["b2"], ps["c1"], ps["c2"], ps["big_k"]
    )
    if args.base is not None:
        bases = [parse_charge(args.base)]
    else:
        bases = [
            (p, ps["big_k"] - p)
            for p in range(1, ps["big_k"])
            if coll.get((p, ps["big_k"] - p)).terms
        ]
        if not bases:
            raise UsageError("no interior base label with a nonzero tau")
    reports = [akns_pde_check(coll, base) for base in bases]
    return finish_verify(args, reports)


def cmd_verify(args) -> int:
    if args.what == "kp":
        return _verify_kp(args)
    if args.what == "nkdv":
        return _verify_nkdv(args)
    if args.what == "mkp":
        return _verify_mkp(args)
    if args.what == "mnkdv":
        return _verify_mnkdv(args, with_hirota=True)
    if args.what == "reduction":
        return _verify_mnkdv(args, with_hirota=False)
    if args.what == "akns":
        return _verify_akns(args)
    raise UsageError(f"unknown verification target {args.what!r}")


def _compare_kp_case(case) -> list[tuple[str, bool]]:
    raw = case.get("partition")
    if not isinstance(raw, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in raw
    ):
        raise UsageError("kp case needs a \"partition\" array of integers")
    try:
        p = Partition.coerce(raw)
    except ValueError as exc:
        raise UsageError(str(exc))
    guard_degree(p.size)
    shifts = None
    if "shifts" in case and case["shifts"] != "zero":
        table = load_shift_map(case["shifts"], 1, len(p), "column")
        shifts = [table.get(j, []) for j in range(1, len(p) + 1)]
    det = tau_kp(p, shifts)
    orc = oracle_tau(generators_from_partition(p, shifts), (len(p),))
    return [(f"kind=kp partition={p}", det == orc)]


def _compare_mkp_case(case) -> list[tuple[str, bool]]:
    specs = parse_specs_obj(case.get("specs"))
    guard_degree(spec_degree_bound(specs))
    ncomp = specs[0].ncomp
    raw_charges = case.get("charges")
    if raw_charges is None:
        charges = list(charge_vectors(len(specs), ncomp))
    else:
        if not isinstance(raw_charges, list) or not all(
            isinstance(ch, list)
            and all(isinstance(x, int) and not isinstance(x, bool) for x in ch)
            for ch in raw_charges
        ):
            raise UsageError("\"charges\" must be an array of integer arrays")
        charges = [tuple(ch) for ch in raw_charges]
    # one set of column tables and one wedge for every charge, each checked as oracle_tau would
    wedge = wedge_from_generators([generator_from_hspec(spec, ncomp) for spec in specs], ncomp)
    out = []
    for charge, det in zip(charges, tau_mkp_entries(specs, charges)):
        if any(x < 0 for x in charge):
            raise UsageError(f"charge {charge} has negative parts")
        label = ",".join(str(x) for x in charge)
        out.append((f"kind=mkp charge=({label})", det == wedge_tau(wedge, charge)))
    return out


def cmd_oracle_compare(args) -> int:
    data = load_json_file(args.case)
    cases = data if isinstance(data, list) else [data]
    results: list[tuple[str, bool]] = []
    for case in cases:
        if not isinstance(case, dict):
            raise UsageError("each case must be a JSON object")
        kind = case.get("kind")
        if kind == "kp":
            results.extend(_compare_kp_case(case))
        elif kind == "mkp":
            results.extend(_compare_mkp_case(case))
        else:
            raise UsageError(f"case kind must be \"kp\" or \"mkp\", got {kind!r}")
    if not results:
        raise UsageError("no comparisons were run; nothing was compared")
    ok = all(match for _, match in results)
    lines = [("MATCH " if match else "MISMATCH ") + desc for desc, match in results]
    lines.append(
        f"all {len(results)} comparisons match"
        if ok
        else f"{sum(1 for _, m in results if not m)} of {len(results)} comparisons differ"
    )
    obj = {
        "pass": ok,
        "cases": [{"case": desc, "match": match} for desc, match in results],
    }
    emit(args, lines, obj)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.add_argument(
        "--timings", action="store_true", help="include timings in JSON reports"
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process (module docstring); callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="tauforge",
        description="Construct and verify polynomial tau-functions exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("schur", help="print an elementary Schur polynomial")
    sp.add_argument("j", type=int)
    sp.add_argument("--component", type=int, default=1)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_schur)

    sp = sub.add_parser("tau-kp", help="KP tau-function from a partition")
    sp.add_argument("--partition", required=True)
    sp.add_argument("--shifts", default=None, help='"zero" or a shift file')
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_tau_kp)

    sp = sub.add_parser("tau-mkp", help="multicomponent collection from a specs file")
    sp.add_argument("--specs", required=True)
    sp.add_argument("--charge", default=None, help="print one entry, e.g. 2,0")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_tau_mkp)

    sp = sub.add_parser("tau-nkdv", help="n-KdV tau-function from a periodic partition")
    sp.add_argument("--partition", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--shifts", default=None, help='"zero" or a class shift file')
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_tau_nkdv)

    sp = sub.add_parser("tau-mnkdv", help="reduced collection from a profile file")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--charge", default=None)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_tau_mnkdv)

    sp = sub.add_parser("akns", help="AKNS tau-functions in the x-variables")
    sp.add_argument("--m1", type=int, required=True)
    sp.add_argument("--m2", type=int, required=True)
    sp.add_argument("--k", type=int, default=None, help="default max(m1, m2)")
    sp.add_argument("--p", type=int, default=None, help="print only tau^(p, K-p)")
    sp.add_argument("--b1", default="1")
    sp.add_argument("--b2", default="1")
    sp.add_argument("--c1", default="zero", help='comma-separated rationals or "zero"')
    sp.add_argument("--c2", default="zero")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_akns)

    sp = sub.add_parser("verify", help="run exact identity checks")
    sp.add_argument(
        "--what",
        required=True,
        choices=["kp", "mkp", "nkdv", "mnkdv", "akns", "reduction"],
    )
    sp.add_argument("--partition", default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--shifts", default=None, help='"zero", "random", or a shift file')
    sp.add_argument("--specs", default=None)
    sp.add_argument("--profile", default=None)
    sp.add_argument("--m1", type=int, default=None)
    sp.add_argument("--m2", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--b1", default="1")
    sp.add_argument("--b2", default="1")
    sp.add_argument("--c1", default="zero")
    sp.add_argument("--c2", default="zero")
    sp.add_argument("--base", default=None, help="AKNS base label, e.g. 1,1")
    sp.add_argument("--j", type=int, default=0, help="residue weight for --what kp")
    sp.add_argument("--j-max", dest="j_max", type=int, default=1)
    sp.add_argument("--d-max", dest="d_max", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle-compare", help="determinants vs the exterior oracle")
    sp.add_argument("--case", required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_oracle_compare)

    sp = sub.add_parser("list-periodic", help="enumerate n-periodic partitions")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-size", dest="max_size", type=int, required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_list_periodic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit does not
        # raise a second time on the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed by its reader", file=sys.stderr)
        return 141


if __name__ == "__main__":
    sys.exit(main())
