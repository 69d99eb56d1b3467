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

Each kind of input has one loader, called by every subcommand that reads
that kind: ``load_partition`` (--partition and the shift sets of --shifts,
for tau-kp, tau-nkdv and verify's kp and nkdv), ``load_specs`` (a specs file
or an oracle case's specs), ``load_profile``, ``akns_params`` and
``compare_case`` (one oracle case).  A loader parses its input, checks the
weighted degree it asks for against the cap, and raises the one-line
diagnostic; ``main`` prints a ``ValueError`` from the library the same way.
Results leave through ``emit_poly``, ``emit_collection`` and ``report``.

The environment variable TAUFORGE_MAX_DEGREE (default 64) caps the weighted
degree of any requested construction; exceeding it is an input error.  It
caps degree, not work: under the default cap one oracle comparison of the KP
case (30,10,1), of weighted degree 41, took 38 s on a 2-core machine.

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
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Sequence

from .fock import generator_from_hspec, wedge_from_generators, wedge_tau
from .hirota import (
    VerificationReport,
    akns_pde_check,
    hirota_kp_check,
    reduction_check,
    verify_kp,
    verify_mkp_collection,
)
from .partitions import Partition, enumerate_n_periodic, expected_shift_lengths
from .polycore import Poly, exact_fraction
from .schur import elementary_schur
from .tau import (
    HSpec,
    KdVProfile,
    TauCollection,
    akns_collection,
    akns_tau,
    charge_vectors,
    kp_specs_from_partition,
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


# -- input loaders ---------------------------------------------------------------


def guard_degree(bound: int) -> None:
    """Reject a construction of weighted degree ``bound`` above TAUFORGE_MAX_DEGREE."""
    raw = os.environ.get("TAUFORGE_MAX_DEGREE")
    cap = DEFAULT_MAX_DEGREE
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError(f"TAUFORGE_MAX_DEGREE must be an integer, got {raw!r}")
        if cap < 0:
            raise UsageError("TAUFORGE_MAX_DEGREE must be >= 0")
    if bound > cap:
        raise UsageError(
            f"weighted degree {bound} exceeds the cap {cap};"
            " raise TAUFORGE_MAX_DEGREE to allow it"
        )


def _is_int(value) -> bool:
    # True is an int to Python, but not to a JSON input
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(value) -> Fraction:
    if isinstance(value, float):
        raise UsageError(f"floats are not exact; write {value!r} as a string fraction")
    try:
        return exact_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
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
    return Partition(parts)


def parse_charge(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise UsageError(f"not a charge vector: {text!r}")


def check_n(n: int) -> None:
    if n < 2:
        raise UsageError("--n must be >= 2")


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


def shift_table(raw, p: Partition, n: int | None = None):
    """A shift-file object as the shift vectors of columns 1..len(p), in a list,
    or with ``n`` as {residue class 0..n-1: entries}."""
    low, high, what = (1, len(p), "column") if n is None else (0, n - 1, "residue class")
    if not isinstance(raw, dict):
        raise UsageError(f"{what} shift file must be a JSON object")
    table: dict[int, list[Fraction]] = {}
    for key, value in raw.items():
        try:
            label = int(key)
        except ValueError:
            raise UsageError(f"{what} label must be an integer, got {key!r}")
        if not low <= label <= high:
            raise UsageError(f"{what} label {label} outside {low}..{high}")
        table[label] = parse_shift_entries(value)
    return table if n is not None else [table.get(j, []) for j in range(1, high + 1)]


def random_shift_vector(rng: random.Random, length: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]


def load_partition(args, n: int | None = None) -> tuple[Partition, list]:
    """--partition within the degree cap, and the shift sets of --shifts to build
    it with: [None] for none or "zero", one seeded draw per trial for verify's
    "random", else the shift file's ``shift_table`` (by residue class mod ``n``
    if given, after --n is checked)."""
    p = parse_partition(args.partition)
    if n is not None:
        check_n(n)
    guard_degree(p.size)
    if args.shifts is None or args.shifts == "zero":
        return p, [None]
    if args.shifts == "random" and args.command == "verify":
        rng = random.Random(args.seed)
        lengths = expected_shift_lengths(p)
        width = max(lengths, default=0)
        return p, [
            [random_shift_vector(rng, length) for length in lengths] if n is None
            else {k: random_shift_vector(rng, width) for k in range(n)}
            for _ in range(args.trials)
        ]
    return p, [shift_table(load_json_file(args.shifts), p, n)]


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
        if not _is_int(degree) or degree < 1:
            raise UsageError(f"degree must be a positive integer, got {degree!r}")
        coeff = parse_rational(item.get("coeff", 1))
        shift = parse_shift_entries(item.get("shift", []))
        triples.append((degree, coeff, shift))
    return HSpec.make(triples)


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
        if not _is_int(declared):
            raise UsageError(f"ncomp must be an integer, got {declared!r}")
        if declared != ncomp:
            raise UsageError(f"declared ncomp {declared} does not match columns ({ncomp})")
    return specs


def _top_degree(spec: HSpec) -> int:
    return max(term.degree for term in spec.terms if term.coeff)


def load_specs(data) -> list[HSpec]:
    """A specs file's object, or an oracle case's "specs", within the degree cap."""
    specs = parse_specs_obj(data)
    guard_degree(sum(map(_top_degree, specs)))
    return specs


def load_profile(data) -> KdVProfile:
    """A profile file's object within the degree cap; column j reaches weighted
    degree (k_j + 1) times its top degree."""
    if not isinstance(data, dict):
        raise UsageError("profile file must be a JSON object")
    raw_parts = data.get("n_parts")
    if not isinstance(raw_parts, list) or not raw_parts:
        raise UsageError("profile needs a non-empty \"n_parts\" array")
    if not all(map(_is_int, raw_parts)):
        raise UsageError("n_parts entries must be integers")
    if data.get("specs") is None:
        raise UsageError("profile needs a \"specs\" array")
    profile = KdVProfile(tuple(raw_parts), tuple(parse_specs_obj(data["specs"])))
    guard_degree(sum(
        (k + 1) * _top_degree(spec) for spec, k in zip(profile.specs, profile.k_values())
    ))
    return profile


def akns_params(args) -> tuple:
    """--m1, --m2, --k (default max(m1, m2)), --b1, --b2, --c1 and --c2 within the
    degree cap, as the arguments (m1, m2, b1, b2, c1, c2, K) that ``akns_collection``
    and ``akns_tau`` take."""
    if args.m1 < 1 or args.m2 < 1:
        raise UsageError("--m1 and --m2 must be >= 1")
    big_k = args.k if args.k is not None else max(args.m1, args.m2)
    if big_k < 1:
        raise UsageError("--k must be >= 1")
    guard_degree(big_k * max(args.m1, args.m2))
    return (
        args.m1, args.m2, parse_rational(args.b1), parse_rational(args.b2),
        parse_rational_csv(args.c1), parse_rational_csv(args.c2), big_k,
    )


def compare_case(case) -> list[tuple[str, bool]]:
    """One oracle case, loaded within the degree cap: (description, determinant
    equals oracle) for its partition, or for each of its charges."""
    if not isinstance(case, dict):
        raise UsageError("each case must be a JSON object")
    kind = case.get("kind")
    if kind == "kp":
        raw = case.get("partition")
        if not isinstance(raw, list) or not all(map(_is_int, raw)):
            raise UsageError("kp case needs a \"partition\" array of integers")
        p = Partition(tuple(raw))
        guard_degree(p.size)
        shifts = case.get("shifts", "zero")
        specs = kp_specs_from_partition(p, None if shifts == "zero" else shift_table(shifts, p))
        ncomp, charges, names = 1, [(len(p),)], [f"kind=kp partition={p}"]
    elif kind == "mkp":
        specs = load_specs(case.get("specs"))
        ncomp = specs[0].ncomp
        raw_charges = case.get("charges")
        if raw_charges is None:
            charges = list(charge_vectors(len(specs), ncomp))
        elif isinstance(raw_charges, list) and all(
            isinstance(ch, list) and all(map(_is_int, ch)) for ch in raw_charges
        ):
            charges = [tuple(ch) for ch in raw_charges]
        else:
            raise UsageError("\"charges\" must be an array of integer arrays")
        names = [f"kind=mkp charge=({','.join(map(str, ch))})" for ch in charges]
    else:
        raise UsageError(f"case kind must be \"kp\" or \"mkp\", got {kind!r}")
    # a kp case is the one-component mkp case at charge (m,); one set of column
    # tables and one wedge serve every charge, each checked as oracle_tau would
    wedge = wedge_from_generators([generator_from_hspec(spec, ncomp) for spec in specs], ncomp)
    return [(name, det == wedge_tau(wedge, charge))
            for name, charge, det in zip(names, charges, tau_mkp_entries(specs, charges))]


# -- output ----------------------------------------------------------------------


def emit(args, lines: Iterable[str], obj: Callable[[], object]) -> None:
    """Print ``lines``, or with --json the object ``obj()``: each mode builds only
    what it prints, so ``lines`` should be lazy where a line costs a render."""
    if args.json:
        print(json.dumps(obj(), sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def emit_poly(args, p: Poly) -> int:
    text = str(p)
    emit(args, [text], lambda: {"text": text, "poly": p.to_json_obj()})
    return 0


def emit_collection(args, coll: TauCollection) -> int:
    lines = (
        f"tau[{','.join(str(x) for x in label)}] = {coll.entries[label]}"
        for label in coll.labels()
    )
    emit(args, lines, coll.to_json_obj)
    return 0


#: The words of ``report``: what a row is, what a run does, the summary verb
#: when every row passed and when some failed, and the JSON key of the rows.
CHECKS = ("checks", "verified", "passed", "FAILED", "reports")
COMPARISONS = ("comparisons", "compared", "match", "differ", "cases")


def report(args, rows: list, words: tuple[str, ...], passed: Callable[[object], bool],
           line: Callable[[object], str], row_obj: Callable[[object], dict]) -> int:
    """Each row's ``line`` and a summary, or {"pass": ..., key: [``row_obj`` of each
    row]} as JSON; exit code 0 when every row ``passed`` and 1 otherwise.  No rows
    is an input error."""
    noun, done, all_passed, failed, key = words
    if not rows:
        raise UsageError(f"no {noun} were run; nothing was {done}")
    bad = sum(not passed(row) for row in rows)
    summary = (
        f"{bad} of {len(rows)} {noun} {failed}" if bad else f"all {len(rows)} {noun} {all_passed}"
    )
    emit(args, chain(map(line, rows), [summary]),
         lambda: {"pass": not bad, key: list(map(row_obj, rows))})
    return 1 if bad else 0


# -- subcommand handlers -----------------------------------------------------------


def cmd_schur(args) -> int:
    if args.j < 0:
        raise UsageError("the index must be >= 0")
    if args.component < 1:
        raise UsageError("--component must be >= 1")
    guard_degree(args.j)
    p = elementary_schur(args.j, component=args.component, ncomp=args.component)
    return emit_poly(args, p)


def cmd_tau_kp(args) -> int:
    p, [shifts] = load_partition(args)
    return emit_poly(args, tau_kp(p, shifts))


def cmd_tau_mkp(args) -> int:
    specs = load_specs(load_json_file(args.specs))
    if args.charge is None:
        return emit_collection(args, tau_mkp_collection(specs))
    return emit_poly(args, tau_mkp_entry(specs, parse_charge(args.charge)))


def cmd_tau_nkdv(args) -> int:
    p, [shifts] = load_partition(args, args.n)
    return emit_poly(args, tau_nkdv(p, args.n, shifts))


def cmd_tau_mnkdv(args) -> int:
    profile = load_profile(load_json_file(args.profile))
    if args.charge is None:
        return emit_collection(args, tau_mnkdv_collection(profile))
    charge = parse_charge(args.charge)
    if len(charge) != profile.ncomp:
        raise UsageError(f"charge must have {profile.ncomp} parts")
    return emit_poly(args, tau_mnkdv_entry(profile, charge))


def cmd_akns(args) -> int:
    params = akns_params(args)
    if args.p is None:
        return emit_collection(args, akns_collection(*params))
    if not 0 <= args.p <= params[-1]:
        raise UsageError(f"--p must lie in 0..{params[-1]}, got {args.p}")
    return emit_poly(args, akns_tau(*params, args.p))


def cmd_list_periodic(args) -> int:
    check_n(args.n)
    if args.max_size < 0:
        raise UsageError("--max-size must be >= 0")
    guard_degree(args.max_size)
    found = enumerate_n_periodic(args.n, args.max_size)
    lines = (",".join(str(x) for x in p.parts) if p.parts else "()" for p in found)
    emit(args, lines,
         lambda: {"n": args.n, "max_size": args.max_size, "partitions": [list(p) for p in found]})
    return 0


def _check_depths(args) -> None:
    if args.what != "reduction" and args.j_max < 0:
        raise UsageError("--j-max must be >= 0")
    if args.d_max < 1:
        raise UsageError("--d-max must be >= 1")


def _verify_kp(args) -> list[VerificationReport]:
    p, shift_sets = load_partition(args)
    n = args.n if args.n is not None else 1
    if n < 1:
        raise UsageError("--n must be >= 1")
    if args.j < 0:
        raise UsageError("--j must be >= 0")
    return [hirota_kp_check(tau_kp(p, shifts), j=args.j, n=n) for shifts in shift_sets]


def _verify_nkdv(args) -> list[VerificationReport]:
    check_n(args.n)
    _check_depths(args)
    p, shift_sets = load_partition(args, args.n)
    reports = []
    for shifts in shift_sets:
        tau = tau_nkdv(p, args.n, shifts)
        reports.append(reduction_check(tau, (args.n,), j_max=args.d_max))
        reports.extend(verify_kp(tau, args.n, range(args.j_max + 1)))
    return reports


def _verify_mkp(args) -> list[VerificationReport]:
    return verify_mkp_collection(tau_mkp_collection(load_specs(load_json_file(args.specs))))


def _verify_mnkdv(args) -> list[VerificationReport]:
    """--what mnkdv and reduction: every entry's reduction check, and for mnkdv the
    multicomponent identities at j = 0..--j-max."""
    profile = load_profile(load_json_file(args.profile))
    _check_depths(args)
    coll = tau_mnkdv_collection(profile)
    reports = [
        reduction_check(coll.entries[label], profile.n_parts, j_max=args.d_max)
        for label in coll.labels()
    ]
    if args.what == "mnkdv":
        reports.extend(
            verify_mkp_collection(
                coll, n_parts=profile.n_parts, j_values=tuple(range(args.j_max + 1))
            )
        )
    return reports


def _verify_akns(args) -> list[VerificationReport]:
    params = akns_params(args)
    big_k = params[-1]
    if big_k < 2:
        raise UsageError("the differential check needs K >= 2 (two lattice neighbors)")
    coll = akns_collection(*params)
    if args.base is not None:
        bases = [parse_charge(args.base)]
    else:
        bases = [(p, big_k - p) for p in range(1, big_k) if coll.get((p, big_k - p))]
        if not bases:
            raise UsageError("no interior base label with a nonzero tau")
    return [akns_pde_check(coll, base) for base in bases]


#: verify --what: the flags each target needs, and the checks it runs.
VERIFY = {
    "kp": (("--partition",), _verify_kp),
    "mkp": (("--specs",), _verify_mkp),
    "nkdv": (("--partition", "--n"), _verify_nkdv),
    "mnkdv": (("--profile",), _verify_mnkdv),
    "akns": (("--m1", "--m2"), _verify_akns),
    "reduction": (("--profile",), _verify_mnkdv),
}


def cmd_verify(args) -> int:
    flags, checks = VERIFY[args.what]
    if any(getattr(args, flag[2:]) is None for flag in flags):
        raise UsageError(f"verify --what {args.what} needs {' and '.join(flags)}")
    return report(args, checks(args), CHECKS, attrgetter("passed"), str,
                  lambda r: r.to_json_obj(include_timing=args.timings))


def cmd_oracle_compare(args) -> int:
    data = load_json_file(args.case)
    rows = [row for case in (data if isinstance(data, list) else [data])
            for row in compare_case(case)]
    return report(args, rows, COMPARISONS, itemgetter(1),
                  lambda row: ("MATCH " if row[1] else "MISMATCH ") + row[0],
                  lambda row: {"case": row[0], "match": row[1]})


# -- parser ------------------------------------------------------------------------


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")


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
        choices=list(VERIFY),
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
    sp.add_argument("--timings", action="store_true", help="include timings in JSON reports")
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
