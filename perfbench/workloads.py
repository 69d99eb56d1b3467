"""Seeded inputs of the three workloads and how one case runs and is checked.

A workload is a fixed list of cases made from the seed alone; every run
processes that list in whole rounds, so every run times the same multiset of
inputs.  Generation uses no tauforge code: a case is plain data (partitions,
Fraction shifts, degrees).  ``Runner`` turns the cases into program calls.

Each case has three parts:

* ``Runner.run``: the timed part, program calls only;
* ``Runner.check``: the untimed part, comparing the result with the exact
  computations in ``exact.py`` and with properties of the method;
* ``Runner.fingerprint``: a summary that later rounds must reproduce.

Round sizes are 35, 25 and 25 cases so that the pooled median and 90th
percentile fall in the middle of one case's block of samples rather than on
the boundary between two cases of different cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import exact

WORKLOADS = ("kp-residue", "mkp-families", "construct-oracle")

KP_SIZE = 6
# The 2- and 3-periodic partitions of 6, which give n-KdV tau-functions.
NKDV_CASES = ((2, (3, 2, 1)), (3, (4, 2)), (3, (2, 2, 1, 1)))
TRUE_SETS = 2  # each true partition twice per round, with two seeded shift sets
KP_CONTROLS = 5  # perturbed copies of the first five partitions of KP_SIZE
NKDV_CONTROLS = 2  # and of the first two n-KdV cases
NKDV_J = (0, 1, 2)

# mkp-families: (n_parts, columns, degree) of the reduced profiles, cheapest first.
MNKDV_PROFILES = (((3, 2), 1, 3), ((2, 1), 1, 3), ((2, 2), 2, 3), ((3, 3), 2, 4))
MKP_J = (0, 1, 2)
REDUCTION_J_MAX = 3

# construct-oracle
CLI_KP_PARTITIONS = ((4, 2), (3, 2, 1), (5, 1))
CLI_MKP_SHAPES = ((2, 2, 3), (2, 3, 2), (3, 2, 3))  # (ncomp, columns, degree)
CLI_AKNS_ORDERS = ((3, 3), (4, 4), (5, 5))
# Partitions of 7 and 8 with three or four parts.  The oracle's cost grows
# with the number of parts, from 3 ms on (8) to seconds on (1^7), so these keep
# it the largest layer without letting one case dominate a round.
ORACLE_KP_PARTITIONS = (
    (5, 1, 1, 1), (4, 2, 1, 1), (3, 3, 1, 1), (3, 2, 2, 1), (2, 2, 2, 2), (5, 1, 1, 1),
    (3, 2, 2, 1), (4, 1, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1), (4, 2, 2), (3, 3, 2), (5, 2, 1),
)
ORACLE_MKP_SHAPE = (2, 2, 3)

# Cases that call the library directly; the others go through cli.main.
LIBRARY_KINDS = frozenset({"kp", "nkdv", "mkp", "mnkdv", "akns"})


@dataclass(frozen=True)
class Case:
    """One input of a round: ``kind`` selects the program calls, ``data`` holds
    the seeded plain-data input, ``control`` marks a perturbed non-tau."""

    name: str
    kind: str
    data: dict
    control: bool = False


# -- seeded generation -------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    # Nonzero numerators keep every input generic, so the term structure and
    # hence the cost of a case do not depend on the seed.
    return Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))


def _vector(rng: random.Random, length: int) -> list[Fraction]:
    return [_rational(rng) for _ in range(length)]


def partitions_of(total: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of ``total`` in reverse lexicographic order."""
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, cap or total), 0, -1):
        out.extend((first,) + rest for rest in partitions_of(total - first, first))
    return out


def shift_lengths(partition: tuple[int, ...]) -> list[int]:
    """l_j + m - j: the length of the j-th column's shift vector."""
    m = len(partition)
    return [partition[j] + m - 1 - j for j in range(m)]


def _spec(rng: random.Random, ncomp: int, degree: int) -> list[tuple[int, Fraction, list[Fraction]]]:
    return [(degree, _rational(rng), _vector(rng, degree)) for _ in range(ncomp)]


def _kp_residue(rng: random.Random) -> list[Case]:
    kp_parts = partitions_of(KP_SIZE)
    cases = []

    def kp(p, tag, control):
        data = {"partition": p, "shifts": [_vector(rng, n) for n in shift_lengths(p)]}
        if control:
            data["perturb"] = _rational(rng)
        return Case(f"kp{tag}{p}", "kp", data, control)

    def nkdv(n, p, tag, control):
        width = shift_lengths(p)[0]
        data = {"partition": p, "n": n, "shifts": {k: _vector(rng, width) for k in range(n)}}
        if control:
            data["perturb"] = _rational(rng)
        return Case(f"nkdv{n}{tag}{p}", "nkdv", data, control)

    for t in range(TRUE_SETS):
        cases += [kp(p, f"#{t}", False) for p in kp_parts]
        cases += [nkdv(n, p, f"#{t}", False) for n, p in NKDV_CASES]
    cases += [kp(p, "-control", True) for p in kp_parts[:KP_CONTROLS]]
    cases += [nkdv(n, p, "-control", True) for n, p in NKDV_CASES[:NKDV_CONTROLS]]
    return cases


def _mkp_families(rng: random.Random) -> list[Case]:
    # Costs cluster around the median (akns (4,4), (5,4), 3x3 mkp: 28-37 ms)
    # and around the 90th percentile (2-column mkp and its controls: 190-250 ms).
    cases = []

    def mkp(ncol, degree, i, control=False):
        data = {"specs": [_spec(rng, 3, degree) for _ in range(ncol)]}
        if control:
            data["perturb"] = _rational(rng)
        tag = "-control" if control else ""
        return Case(f"mkp3x{ncol}d{degree}#{i}{tag}", "mkp", data, control)

    def mnkdv(profile, i, control=False):
        n_parts, ncol, degree = profile
        data = {"n_parts": n_parts, "specs": [_spec(rng, len(n_parts), degree) for _ in range(ncol)]}
        if control:
            data["perturb"] = _rational(rng)
        tag = "-control" if control else ""
        return Case(f"mnkdv{n_parts}x{ncol}d{degree}#{i}{tag}", "mnkdv", data, control)

    def akns(m1, m2, i, control=False):
        data = _akns_data(rng, m1, m2)
        if control:
            data["perturb"] = _rational(rng)
        tag = "-control" if control else ""
        return Case(f"akns({m1},{m2})#{i}{tag}", "akns", data, control)

    cases += [mnkdv(p, 0) for p in MNKDV_PROFILES[:3]] + [akns(3, 3, 0), akns(3, 3, 1)]
    for i in range(3):
        cases += [akns(4, 4, i), akns(5, 4, i), mkp(3, 2, i)]
    cases += [akns(4, 4, 3, True), akns(4, 4, 4, True), mnkdv(MNKDV_PROFILES[3], 0),
              mnkdv(MNKDV_PROFILES[3], 1, True)]
    cases += [mkp(2, 3, i) for i in range(4)] + [mkp(2, 3, 4, True), mkp(2, 3, 5, True)]
    cases.append(akns(5, 5, 0))
    return cases


def _akns_data(rng: random.Random, m1: int, m2: int) -> dict:
    return {"m1": m1, "m2": m2, "b1": _rational(rng), "b2": _rational(rng),
            "c1": _vector(rng, m1), "c2": _vector(rng, m2)}


def _construct_oracle(rng: random.Random) -> list[Case]:
    cases = []
    for p in CLI_KP_PARTITIONS:
        cases.append(Case(f"tau-kp{p}", "tau-kp",
                          {"partition": p, "shifts": [_vector(rng, n) for n in shift_lengths(p)]}))
    for ncomp, ncol, degree in CLI_MKP_SHAPES:
        cases.append(Case(f"tau-mkp{ncomp}x{ncol}d{degree}", "tau-mkp",
                          {"specs": [_spec(rng, ncomp, degree) for _ in range(ncol)]}))
    for n_parts, ncol, degree in MNKDV_PROFILES[:3]:
        cases.append(Case(f"tau-mnkdv{n_parts}x{ncol}d{degree}", "tau-mnkdv",
                          {"n_parts": n_parts,
                           "specs": [_spec(rng, len(n_parts), degree) for _ in range(ncol)]}))
    for m1, m2 in CLI_AKNS_ORDERS:
        cases.append(Case(f"akns-cli{(m1, m2)}", "akns-cli", _akns_data(rng, m1, m2)))
    ncomp, ncol, degree = ORACLE_MKP_SHAPE
    for i, p in enumerate(ORACLE_KP_PARTITIONS):
        cases.append(Case(f"oracle-compare#{i}{p}", "oracle-compare", {
            "partition": p,
            "shifts": [_vector(rng, n) for n in shift_lengths(p)],
            "specs": [_spec(rng, ncomp, degree) for _ in range(ncol)],
        }))
    return cases


def generate(workload: str, seed: int) -> list[Case]:
    """The round of ``workload`` for ``seed``: the same seed gives the same cases."""
    makers = {"kp-residue": _kp_residue, "mkp-families": _mkp_families,
              "construct-oracle": _construct_oracle}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](random.Random(f"{workload}:{seed}"))


# -- JSON input files for the CLI ------------------------------------------------


def _spec_json(spec) -> list[dict]:
    return [{"degree": d, "coeff": str(c), "shift": [str(x) for x in s]} for d, c, s in spec]


def _csv(values) -> str:
    return ",".join(str(x) for x in values)


def cli_argv(case: Case, workdir: str) -> tuple[list[str], dict[str, Any]]:
    """The ``tauforge`` arguments of a CLI case and the input files they read."""
    d = case.data
    path = os.path.join(workdir, case.name.replace(" ", "") + ".json")
    if case.kind == "tau-kp":
        shifts = {str(j + 1): [str(x) for x in s] for j, s in enumerate(d["shifts"])}
        return ["tau-kp", "--partition", _csv(d["partition"]), "--shifts", path, "--json"], {path: shifts}
    if case.kind == "tau-mkp":
        return ["tau-mkp", "--specs", path, "--json"], {path: {"specs": [_spec_json(s) for s in d["specs"]]}}
    if case.kind == "tau-mnkdv":
        body = {"n_parts": list(d["n_parts"]), "specs": [_spec_json(s) for s in d["specs"]]}
        return ["tau-mnkdv", "--profile", path, "--json"], {path: body}
    if case.kind == "akns-cli":
        return ["akns", "--m1", str(d["m1"]), "--m2", str(d["m2"]), f"--b1={d['b1']}",
                f"--b2={d['b2']}", f"--c1={_csv(d['c1'])}", f"--c2={_csv(d['c2'])}", "--json"], {}
    if case.kind == "oracle-compare":
        body = [
            {"kind": "kp", "partition": list(d["partition"]),
             "shifts": {str(j + 1): [str(x) for x in s] for j, s in enumerate(d["shifts"])}},
            {"kind": "mkp", "specs": [_spec_json(s) for s in d["specs"]]},
        ]
        return ["oracle-compare", "--case", path, "--json"], {path: body}
    raise ValueError(f"{case.kind} is not a CLI case")


# -- running and checking cases ----------------------------------------------------


class CaseError(Exception):
    """The result of a case is wrong; the message says how."""


class Runner:
    """Runs the cases of one workload against the tauforge package."""

    def __init__(self, cases: list[Case], seed: int, workdir: str):
        import tauforge.cli
        import tauforge.hirota
        import tauforge.polycore
        import tauforge.tau

        self.cli = tauforge.cli
        self.hirota = tauforge.hirota
        self.polycore = tauforge.polycore
        self.tau = tauforge.tau
        self.seed = seed
        self.inputs: list[Any] = []
        for case in cases:
            self.inputs.append(self._prepare(case, workdir))

    # -- set-up: plain data -> program objects and input files

    def _perturbation(self, coeff: Fraction, ncomp: int, weight: int, family: str = "T"):
        """coeff * v1^(weight - 2) * v2 in component 1: a top-weight term that
        no tau-function of this weight acquires alone."""
        pc = self.polycore
        make = pc.xvar if family == "X" else pc.tvar
        return (make(1, 1, ncomp) ** (weight - 2) * make(2, 1, ncomp)).scale(coeff)

    def _hspecs(self, specs):
        return [self.tau.HSpec.make(spec) for spec in specs]

    def _prepare(self, case: Case, workdir: str):
        d = case.data
        if case.kind == "kp":
            pert = self._perturbation(d["perturb"], 1, KP_SIZE) if case.control else None
            return (d["partition"], d["shifts"], pert)
        if case.kind == "nkdv":
            pert = self._perturbation(d["perturb"], 1, KP_SIZE) if case.control else None
            return (d["partition"], d["n"], d["shifts"], pert)
        if case.kind == "mkp":
            return (self._hspecs(d["specs"]),
                    self._perturbation(d["perturb"], 3, 4) if case.control else None)
        if case.kind == "mnkdv":
            profile = self.tau.KdVProfile(tuple(d["n_parts"]), tuple(self._hspecs(d["specs"])))
            pert = self._perturbation(d["perturb"], len(d["n_parts"]), 4) if case.control else None
            return (profile, pert)
        if case.kind == "akns":
            pert = self._perturbation(d["perturb"], 1, 4, "X") if case.control else None
            return (d, pert)
        argv, files = cli_argv(case, workdir)
        for path, body in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(body, fh)
        return argv

    # -- the timed part

    def _perturbed(self, coll, pert):
        """The collection with ``pert`` added to its lowest-labelled entry
        (for AKNS, tau^(0, K): the lattice neighbour of base (1, K-1))."""
        entries = dict(coll.entries)
        first = min(entries)
        entries[first] = entries[first] + pert
        return self.tau.TauCollection(coll.total, coll.ncomp, entries)

    def run(self, i: int, case: Case):
        """Program calls of case ``i``; returns what ``check`` needs."""
        tau, hirota = self.tau, self.hirota
        inp = self.inputs[i]
        if case.kind == "kp":
            partition, shifts, pert = inp
            poly = tau.tau_kp(partition, shifts)
            if pert is not None:
                poly = poly + pert
            return poly, [hirota.hirota_kp_check(poly, 0, 1)]
        if case.kind == "nkdv":
            partition, n, shifts, pert = inp
            poly = tau.tau_nkdv(partition, n, shifts)
            if pert is not None:
                poly = poly + pert
            return poly, [hirota.hirota_kp_check(poly, j, n) for j in NKDV_J]
        if case.kind == "mkp":
            specs, pert = inp
            coll = tau.tau_mkp_collection(specs)
            if pert is not None:
                coll = self._perturbed(coll, pert)
            return coll, hirota.verify_mkp_collection(coll)
        if case.kind == "mnkdv":
            profile, pert = inp
            coll = tau.tau_mnkdv_collection(profile)
            if pert is not None:
                coll = self._perturbed(coll, pert)
            reports = [
                hirota.reduction_check(coll.entries[label], profile.n_parts, REDUCTION_J_MAX)
                for label in coll.labels()
            ]
            reports += hirota.verify_mkp_collection(coll, profile.n_parts, MKP_J)
            return coll, reports
        if case.kind == "akns":
            d, pert = inp
            coll = tau.akns_collection(d["m1"], d["m2"], d["b1"], d["b2"], d["c1"], d["c2"])
            if pert is not None:
                coll = self._perturbed(coll, pert)
            big_k = coll.total
            reports = [
                hirota.akns_pde_check(coll, (p, big_k - p))
                for p in range(1, big_k)
                if coll.get((p, big_k - p)).terms
            ]
            return coll, reports
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = self.cli.main(inp)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, out.getvalue()

    # -- the untimed part

    @staticmethod
    def checks(case: Case, result) -> int:
        """Reports (library cases) or output characters (CLI cases) of a result;
        0 means the case did nothing."""
        return len(result[1])

    @staticmethod
    def fingerprint(case: Case, result):
        if case.kind in LIBRARY_KINDS:
            return tuple((r.passed, len(r.obstruction.terms)) for r in result[1])
        return result

    def check(self, case: Case, result) -> None:
        """Raise CaseError unless the result agrees with the exact checks."""
        if case.kind in ("kp", "nkdv"):
            self._check_kp(case, *result)
        elif case.kind in ("mkp", "mnkdv"):
            self._check_mkp(case, *result)
        elif case.kind == "akns":
            self._check_akns(case, *result)
        else:
            self._check_cli(case, *result)

    def _verdict(self, case: Case, reports) -> None:
        if case.control:
            if all(r.passed for r in reports):
                raise CaseError("a perturbed control passed every check")
        else:
            bad = [str(r) for r in reports if not r.passed or r.obstruction.terms]
            if bad:
                raise CaseError(f"a true tau-function failed: {bad[0]}")

    def _check_kp(self, case: Case, poly, reports) -> None:
        if not case.control:
            self._verdict(case, reports)
        elif reports[0].passed:
            raise CaseError("perturbed candidate passed the j=0 residue check")
        value = exact.hirota_kp_value(exact.terms_of(poly.to_json_obj()),
                                      exact.Point(self.seed, case.name))
        if case.control and value == 0:
            raise CaseError("Hirota KP equation vanishes on a perturbed candidate")
        if not case.control and value != 0:
            raise CaseError(f"Hirota KP equation is {value} on a true tau-function")

    def _check_mkp(self, case: Case, coll, reports) -> None:
        self._verdict(case, reports)
        obj = coll.to_json_obj()
        entries = {tuple(e["charge"]): exact.terms_of(e["poly"]) for e in obj["entries"]}
        if not entries:
            raise CaseError("empty collection")
        n_parts = case.data.get("n_parts", (1,) * obj["ncomp"])
        j_values = MKP_J if case.kind == "mnkdv" else (0,)
        values = exact.mkp_identity_values(entries, obj["total"], obj["ncomp"], n_parts,
                                           j_values, self.seed)
        nonzero = [key for key, v in values.items() if v]
        if case.kind == "mnkdv":
            point = exact.Point(self.seed, case.name)
            for label, terms in entries.items():
                if any(exact.reduction_values(terms, n_parts, REDUCTION_J_MAX, point)):
                    nonzero.append(("reduction", label))
        if case.control and not nonzero:
            raise CaseError("bilinear identity vanishes at the point on a perturbed control")
        if not case.control and nonzero:
            raise CaseError(f"bilinear identity fails at the point for {nonzero[0]}")

    def _check_akns(self, case: Case, coll, reports) -> None:
        self._verdict(case, reports)
        obj = coll.to_json_obj()
        entries = {tuple(e["charge"]): exact.terms_of(e["poly"]) for e in obj["entries"]}
        big_k = obj["total"]
        failing = []
        for p in range(1, big_k):
            w = entries.get((p, big_k - p))
            if w is None:
                continue
            u = [(-c, m) for c, m in entries.get((p + 1, big_k - p - 1), [])]
            v = entries.get((p - 1, big_k - p + 1), [])
            for k in range(3):
                try:
                    res = exact.akns_residuals(u, v, w, exact.Point(self.seed, f"{case.name}:{k}"))
                    break
                except ZeroDivisionError:
                    continue
            else:
                raise CaseError(f"tau({p}, {big_k - p}) vanishes at three points")
            if any(res):
                failing.append(p)
        if case.control and not failing:
            raise CaseError("AKNS pair holds at the point on a perturbed control")
        if not case.control and failing:
            raise CaseError(f"AKNS pair fails at the point for base p={failing[0]}")

    def _check_cli(self, case: Case, code, text) -> None:
        if code != 0:
            raise CaseError(f"tauforge exited with {code}")
        if not text.strip():
            raise CaseError("empty output")
        obj = json.loads(text)
        d = case.data
        if case.kind == "oracle-compare":
            expected = 1 + len(exact.charge_vectors(len(d["specs"]), len(d["specs"][0])))
            if obj.get("pass") is not True or not all(c["match"] for c in obj["cases"]):
                raise CaseError("oracle and determinant differ")
            if len(obj["cases"]) != expected:
                raise CaseError(f"{len(obj['cases'])} comparisons, expected {expected}")
            return
        for k in range(2):
            point = exact.Point(self.seed, f"{case.name}:{k}")
            if case.kind == "tau-kp":
                want = {(): exact.tau_kp_det(d["partition"], d["shifts"], point)}
                got = {(): exact.evaluate(exact.terms_of(obj["poly"]), point)}
            else:
                if case.kind == "tau-mkp":
                    want = exact.tau_mkp_dets(d["specs"], point)
                elif case.kind == "tau-mnkdv":
                    want = exact.tau_mnkdv_dets(d["n_parts"], d["specs"], point)
                else:
                    want = exact.akns_dets(d["m1"], d["m2"], d["b1"], d["b2"], d["c1"], d["c2"], point)
                if not obj["entries"]:
                    raise CaseError("empty collection")
                got = {label: Fraction(0) for label in want}
                for e in obj["entries"]:
                    label = tuple(e["charge"])
                    if label not in want:
                        raise CaseError(f"unexpected label {label}")
                    got[label] = exact.evaluate(exact.terms_of(e["poly"]), point)
            for label, value in want.items():
                if got[label] != value:
                    raise CaseError(f"entry {label} is {got[label]} at the point, determinant gives {value}")
