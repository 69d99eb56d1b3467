#!/usr/bin/env python3
"""Fingerprint the command line's behaviour on seeded valid and invalid inputs.

Draws ``--count`` argvs from ``--seed``, spread over every subcommand and
every input-file kind (shift, specs, profile and case files), each input
either well-formed or broken in one or more ways.  Many ``verify`` draws are
KP residue checks at j = 1 or 2, most of which fail, so the output of
failing reports is covered in both modes.  Every argv runs through
``tauforge.cli.main`` in this process, and the script prints one line per
argv: the sha256 of its (exit code, stdout, stderr) and the argv itself.
Input files are written to a temporary directory that is the working
directory during the run, and are named after a digest of their contents,
so the lines name them and never show a temporary path.  A line that sets
``TAUFORGE_MAX_DEGREE=...`` ran with that degree cap.

The output depends only on the seed, the count and the command line's
behaviour, so diffing it between two checkouts shows whether a change kept
every exit code, stdout byte and stderr line:

    PYTHONPATH=src python3 scripts/cli_fingerprint.py --seed 1 --count 400
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile

from tauforge import cli

# -- value pools -------------------------------------------------------------------

RATIONALS = [0, 1, -2, 3, "1/2", "-3/4", "2", "5/3"]
BAD_RATIONALS = [1.5, True, None, "x", "1/0", "", [1]]
PARTITIONS = ["2,1", "3,1", "(2,1)", "1", "", "()", "3,2,1", "2,2", "1,1", "3,1,1", "4"]
BAD_PARTITIONS = ["2,x", "1,2", "0", "2,0", "-1", "2,,1", "(2,1", "a"]
CHARGES = ["1,1", "2,0", "0,2", "1,0", "1,1,1", "3,0,0", "2,1"]
BAD_CHARGES = ["x", "3,0", "-1,3", "1", "1,,1"]
LEAVES = [None, True, False, 0, -1, 2, 2.5, "zero", "1/2", "x", "", [], {}]


def pick(rng: random.Random, good: list, bad: list, p_bad: float = 0.3):
    return rng.choice(bad) if rng.random() < p_bad else rng.choice(good)


def rational(rng: random.Random, p_bad: float = 0.1):
    return pick(rng, RATIONALS, BAD_RATIONALS, p_bad)


def shift_vector(rng: random.Random, length: int, p_bad: float = 0.1):
    if rng.random() < p_bad:
        return rng.choice(["zero", 5, None, "1/2", [1.5], ["1/0"], [True]])
    return [rational(rng, 0.05) for _ in range(length)]


def shift_file(rng: random.Random, keys: list[str]):
    """A shift file keyed by ``keys`` (column labels or residue classes)."""
    if rng.random() < 0.1:
        return rng.choice([[], "zero", 3, None, [{"1": [1]}]])
    body = {}
    for key in rng.sample(keys, rng.randint(0, len(keys))):
        body[key] = shift_vector(rng, rng.randint(0, 3))
    if rng.random() < 0.2:
        body[rng.choice(["0", "3", "9", "-1", "x", "1.0"])] = shift_vector(rng, 1)
    return body


def spec_term(rng: random.Random, p_bad: float):
    if rng.random() < 0.08:
        return None
    term: dict = {}
    if rng.random() < 0.9:
        term["degree"] = rng.randint(1, 3) if rng.random() >= p_bad else rng.choice(
            [0, -1, True, 2.0, "2", None]
        )
    if rng.random() < 0.6:
        term["coeff"] = rational(rng, p_bad)
    if rng.random() < 0.5:
        term["shift"] = shift_vector(rng, rng.randint(0, 2), p_bad)
    if rng.random() < p_bad / 2:
        term[rng.choice(["degre", "x", "coef"])] = 1
    if rng.random() < p_bad / 4:
        return rng.choice([5, "term", [term]])
    return term


def spec_columns(rng: random.Random, ncomp: int, ncols: int, p_bad: float = 0.1):
    columns = []
    for _ in range(ncols):
        width = ncomp if rng.random() >= p_bad / 2 else rng.randint(0, ncomp + 1)
        columns.append([spec_term(rng, p_bad) for _ in range(width)])
    if rng.random() < p_bad / 2:
        columns.append(rng.choice([[], None, "column", [[]]]))
    return columns


def specs_file(rng: random.Random):
    ncomp = rng.randint(1, 3)
    columns = spec_columns(rng, ncomp, rng.randint(1, 3))
    roll = rng.random()
    if roll < 0.15:
        return columns
    if roll < 0.2:
        return rng.choice([{}, {"specs": None}, {"specs": []}, {"specs": "x"}, 7, []])
    body = {"specs": columns}
    if rng.random() < 0.25:
        body["ncomp"] = rng.choice([ncomp, ncomp, ncomp + 1, True, 1.0, "2"])
    return body


def profile_file(rng: random.Random):
    if rng.random() < 0.05:
        return rng.choice([[], "profile", None])
    n_parts = rng.choice([[2, 1], [1, 1], [2], [3], [3, 2], [2, 2], [1]])
    if rng.random() < 0.15:
        n_parts = rng.choice([[1, 2], [0, 1], [True], [2.0], "2", [], None, [2, "1"]])
    ncomp = len(n_parts) if isinstance(n_parts, list) and n_parts else 1
    if rng.random() < 0.05:
        ncomp += 1
    body: dict = {}
    if rng.random() < 0.97:
        body["n_parts"] = n_parts
    if rng.random() < 0.95:
        columns = spec_columns(rng, ncomp, rng.randint(1, 2))
        body["specs"] = columns if rng.random() < 0.8 else {"specs": columns}
    return body


def oracle_case(rng: random.Random):
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(LEAVES)
    if roll < 0.55:
        case: dict = {"kind": "kp"}
        if rng.random() < 0.95:
            if rng.random() < 0.2:
                case["partition"] = rng.choice(
                    ["21", [2.5, 1], [True], [2, None], [2, 0], [1, 2], [-1], {"0": 1}]
                )
            else:
                case["partition"] = rng.choice([[2, 1], [3, 1], [1], [], [2, 2], [3, 1, 1]])
        if rng.random() < 0.6:
            case["shifts"] = shift_file(rng, ["1", "2", "3"]) if rng.random() < 0.9 else "zero"
        return case
    if roll < 0.95:
        ncomp = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        case = {"kind": "mkp", "specs": spec_columns(rng, ncomp, ncols)}
        if rng.random() < 0.1:
            case["specs"] = specs_file(rng)
        if rng.random() < 0.4:
            charges = [
                [rng.randint(-1, ncols) for _ in range(ncomp if rng.random() < 0.8 else 2)]
                for _ in range(rng.randint(0, 3))
            ]
            if rng.random() < 0.15:
                charges = rng.choice([[[None, 2]], [3], [[1, True]], "1,1", None])
            case["charges"] = charges
        return case
    return {"kind": rng.choice(["akns", None, 1, "KP"])}


def case_file(rng: random.Random):
    if rng.random() < 0.3:
        return oracle_case(rng)
    return [oracle_case(rng) for _ in range(rng.randint(0, 3))]


# -- argv makers -----------------------------------------------------------------
# Each returns an argv whose input-file arguments are ``File``s, which
# ``materialize`` writes out and replaces with their names.


class File:
    def __init__(self, kind: str, text: str):
        self.kind = kind
        self.text = text


def file_arg(rng: random.Random, kind: str, body):
    """A file holding ``body`` as JSON; now and then a missing or broken file instead."""
    roll = rng.random()
    if roll < 0.04:
        return "absent.json"
    return File(kind, "{not json" if roll < 0.07 else json.dumps(body))


def make_schur(rng):
    j = rng.choice([0, 1, 3, 5, 8, 12, -1, 70])
    argv = ["schur", "--", str(j)] if j < 0 else ["schur", str(j)]
    if rng.random() < 0.4:
        argv[1:1] = ["--component", str(rng.choice([1, 2, 3, 0, -2]))]
    return argv


def make_tau_kp(rng):
    argv = ["tau-kp", f"--partition={pick(rng, PARTITIONS, BAD_PARTITIONS)}"]
    roll = rng.random()
    if roll < 0.6:
        argv += ["--shifts", file_arg(rng, "shifts", shift_file(rng, ["1", "2", "3"]))]
    elif roll < 0.7:
        argv += ["--shifts", "zero"]
    return argv


def make_tau_nkdv(rng):
    argv = ["tau-nkdv", f"--partition={pick(rng, PARTITIONS, BAD_PARTITIONS)}",
            f"--n={rng.choice([2, 2, 3, 3, 1, 0])}"]
    roll = rng.random()
    if roll < 0.6:
        argv += ["--shifts", file_arg(rng, "shifts", shift_file(rng, ["0", "1", "2"]))]
    elif roll < 0.7:
        argv += ["--shifts", "zero"]
    return argv


def make_tau_mkp(rng):
    argv = ["tau-mkp", "--specs", file_arg(rng, "specs", specs_file(rng))]
    if rng.random() < 0.4:
        argv.append(f"--charge={pick(rng, CHARGES, BAD_CHARGES)}")
    return argv


def make_tau_mnkdv(rng):
    argv = ["tau-mnkdv", "--profile", file_arg(rng, "profile", profile_file(rng))]
    if rng.random() < 0.4:
        argv.append(f"--charge={pick(rng, CHARGES, BAD_CHARGES)}")
    return argv


def akns_flags(rng, required: bool) -> list:
    argv = []
    for flag in ("--m1", "--m2"):
        if required or rng.random() < 0.9:
            argv.append(f"{flag}={rng.choice([1, 2, 2, 3, 3, 4, 0, -1])}")
    if rng.random() < 0.3:
        argv.append(f"--k={rng.choice([1, 2, 3, 5, 0, -1])}")
    for flag in ("--b1", "--b2"):
        if rng.random() < 0.4:
            argv.append(f"{flag}={rng.choice(['1', '2', '-1/3', '0', 'x', '1/0', '1.5'])}")
    for flag in ("--c1", "--c2"):
        if rng.random() < 0.4:
            argv.append(f"{flag}={rng.choice(['zero', '1/2,1', '0,3', '1', 'x', '1,,2'])}")
    return argv


def make_akns(rng):
    argv = ["akns", *akns_flags(rng, required=True)]
    if rng.random() < 0.3:
        argv.append(f"--p={rng.choice([0, 1, 2, 3, -1, 5])}")
    return argv


def make_verify(rng):
    what = rng.choice(["kp", "kp", "kp", "nkdv", "mkp", "mnkdv", "reduction", "akns"])
    argv: list = ["verify", "--what", what]
    if what == "kp" and rng.random() < 0.6:
        # a valid tau's residue check at j >= 1, which fails at j = 1
        partition = rng.choice(["3,2,1", "2,2", "1,1", "3,1,1", "4"])
        argv += [f"--partition={partition}", f"--j={rng.choice([1, 1, 2])}"]
        if rng.random() < 0.5:
            argv += ["--shifts", "random", f"--trials={rng.randint(1, 2)}",
                     f"--seed={rng.randint(0, 9)}"]
        return argv
    p = 0.9 if what in ("kp", "nkdv") else 0.05
    if rng.random() < p:
        argv.append(f"--partition={pick(rng, PARTITIONS, BAD_PARTITIONS, 0.2)}")
    if rng.random() < (0.85 if what == "nkdv" else 0.15):
        argv.append(f"--n={rng.choice([2, 2, 3, 1, 0])}")
    if what in ("kp", "nkdv") and rng.random() < 0.7:
        roll = rng.random()
        if roll < 0.45:
            argv += ["--shifts", "random"]
        elif roll < 0.55:
            argv += ["--shifts", "zero"]
        else:
            keys = ["1", "2", "3"] if what == "kp" else ["0", "1", "2"]
            argv += ["--shifts", file_arg(rng, "shifts", shift_file(rng, keys))]
    if rng.random() < (0.9 if what == "mkp" else 0.05):
        argv += ["--specs", file_arg(rng, "specs", specs_file(rng))]
    if rng.random() < (0.9 if what in ("mnkdv", "reduction") else 0.05):
        argv += ["--profile", file_arg(rng, "profile", profile_file(rng))]
    if what == "akns" or rng.random() < 0.05:
        argv += akns_flags(rng, required=False)
        if rng.random() < 0.3:
            argv.append(f"--base={rng.choice(['1,1', '2,1', '1,2', '0,2', 'x', '1,1,0'])}")
    if rng.random() < 0.2:
        argv.append(f"--j={rng.choice([0, 1, 2, -1])}")
    if rng.random() < 0.25:
        argv.append(f"--j-max={rng.choice([0, 1, 2, -1])}")
    if rng.random() < 0.2:
        argv.append(f"--d-max={rng.choice([1, 2, 3, 0, -1])}")
    if rng.random() < 0.4:
        argv.append(f"--seed={rng.randint(0, 9)}")
    if rng.random() < 0.3:
        argv.append(f"--trials={rng.choice([0, 1, 2, 3, -1])}")
    return argv


def make_oracle_compare(rng):
    return ["oracle-compare", "--case", file_arg(rng, "case", case_file(rng))]


def make_list_periodic(rng):
    return ["list-periodic", f"--n={rng.choice([2, 3, 4, 1, 0, -1])}",
            f"--max-size={rng.choice([0, 4, 8, 12, -1, 65])}"]


MAKERS = [
    (make_schur, 1), (make_tau_kp, 2), (make_tau_nkdv, 2), (make_tau_mkp, 2),
    (make_tau_mnkdv, 2), (make_akns, 2), (make_verify, 8), (make_oracle_compare, 3),
    (make_list_periodic, 1),
]
CAPS = [None] * 12 + ["6", "2", "0", "lots", "-1"]


def draw(rng: random.Random) -> tuple[list, str | None]:
    maker = rng.choices([m for m, _ in MAKERS], weights=[w for _, w in MAKERS])[0]
    argv = maker(rng)
    if rng.random() < 0.6:
        argv.insert(1, "--json")
    return argv, rng.choice(CAPS)


def materialize(arg) -> str:
    """Write a File placeholder under a name from its contents; return the name."""
    if not isinstance(arg, File):
        return arg
    name = f"{arg.kind}-{hashlib.sha256(arg.text.encode()).hexdigest()[:10]}.json"
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(arg.text)
    return name


def run_one(argv: list[str], cap: str | None) -> str:
    """sha256 of (exit code, stdout, stderr) of one ``cli.main`` call."""
    old_cap = os.environ.pop("TAUFORGE_MAX_DEGREE", None)
    if cap is not None:
        os.environ["TAUFORGE_MAX_DEGREE"] = cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects an argv with exit code 2
                code = exc.code
            except Exception as exc:  # an escaped exception is behaviour too
                code = f"{type(exc).__name__}: {exc}"
    finally:
        os.environ.pop("TAUFORGE_MAX_DEGREE", None)
        if old_cap is not None:
            os.environ["TAUFORGE_MAX_DEGREE"] = old_cap
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=400)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for _ in range(args.count):
                raw, cap = draw(rng)
                words = [materialize(a) for a in raw]
                digest = run_one(words, cap)
                env = f"TAUFORGE_MAX_DEGREE={cap} " if cap is not None else ""
                print(f"{digest} {env}tauforge {shlex.join(words)}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
