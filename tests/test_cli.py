import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tauforge import HSpec, Poly, elementary_schur, fermion, tau_kp, tau_mkp_entry
from tauforge.cli import build_parser, main


@pytest.fixture(autouse=True)
def clean_cap(monkeypatch):
    monkeypatch.delenv("TAUFORGE_MAX_DEGREE", raising=False)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


TWO_COMPONENT_SPECS = {
    "specs": [
        [{"degree": 2}, {"degree": 1}],
        [{"degree": 1}, {"degree": 2, "coeff": "1/2"}],
    ]
}

PROFILE_11 = {
    "n_parts": [1, 1],
    "specs": [[{"degree": 2}, {"degree": 2}]],
}


# -- construction commands ----------------------------------------------------


def test_schur_text_output(capsys):
    rc, out, err = run(capsys, "schur", "3")
    assert rc == 0 and err == ""
    assert out == "t3 + t1*t2 + 1/6*t1^3\n"


def test_schur_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "schur", "4", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["text"] == str(elementary_schur(4))
    assert Poly.from_json_obj(payload["poly"]) == elementary_schur(4)


def test_schur_rejects_negative_index(capsys):
    rc, out, err = run(capsys, "schur", "--", "-1")
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_tau_kp_text(capsys):
    rc, out, _ = run(capsys, "tau-kp", "--partition", "2,1")
    assert rc == 0
    assert out == "-t3 + 1/3*t1^3\n"


def test_tau_kp_accepts_parenthesized_partition(capsys):
    rc, out, _ = run(capsys, "tau-kp", "--partition", "(2,1)")
    assert rc == 0
    assert out == "-t3 + 1/3*t1^3\n"


def test_tau_kp_with_shift_file(capsys, tmp_path):
    shifts = write_json(tmp_path, "shifts.json", {"1": [1], "2": [2]})
    rc, out, _ = run(capsys, "tau-kp", "--partition", "1,1", "--shifts", shifts)
    assert rc == 0
    assert out.strip() == str(tau_kp((1, 1), [[1], [2]]))
    assert out == "3/2 + 2*t1 - t2 + 1/2*t1^2\n"


def test_tau_kp_rejects_bad_partition(capsys):
    for bad in ["2,x", "1,2", "0"]:
        rc, out, err = run(capsys, "tau-kp", "--partition", bad)
        assert rc == 2 and err.startswith("error:"), bad


def test_tau_kp_rejects_oversized_shift_vector(capsys, tmp_path):
    shifts = write_json(tmp_path, "shifts.json", {"2": [1, 2, 3]})
    rc, _, err = run(capsys, "tau-kp", "--partition", "2,1", "--shifts", shifts)
    assert rc == 2 and "column 2" in err


def test_tau_nkdv_text(capsys):
    rc, out, _ = run(capsys, "tau-nkdv", "--partition", "2,1", "--n", "2")
    assert rc == 0
    assert out == "-t3 + 1/3*t1^3\n"


def test_tau_nkdv_rejects_nonperiodic(capsys):
    rc, _, err = run(capsys, "tau-nkdv", "--partition", "2,2", "--n", "2")
    assert rc == 2
    assert "not 2-periodic" in err


def test_tau_mkp_collection_lines(capsys, tmp_path):
    specs = write_json(tmp_path, "specs.json", TWO_COMPONENT_SPECS)
    rc, out, _ = run(capsys, "tau-mkp", "--specs", specs)
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("tau[") for line in lines)
    labels = [line.split("]")[0] + "]" for line in lines]
    assert labels == ["tau[0,2]", "tau[1,1]", "tau[2,0]"]


def test_tau_mkp_single_charge(capsys, tmp_path):
    specs = write_json(tmp_path, "specs.json", TWO_COMPONENT_SPECS)
    rc, out, _ = run(capsys, "tau-mkp", "--specs", specs, "--charge", "1,1")
    assert rc == 0
    expected = tau_mkp_entry(
        [
            HSpec.make([(2, 1, None), (1, 1, None)]),
            HSpec.make([(1, 1, None), (2, "1/2", None)]),
        ],
        (1, 1),
    )
    assert out.strip() == str(expected)


def test_tau_mkp_rejects_bad_charge_sum(capsys, tmp_path):
    specs = write_json(tmp_path, "specs.json", TWO_COMPONENT_SPECS)
    rc, _, err = run(capsys, "tau-mkp", "--specs", specs, "--charge", "3,0")
    assert rc == 2 and err.startswith("error:")


def test_tau_mkp_rejects_unknown_term_field(capsys, tmp_path):
    specs = write_json(tmp_path, "specs.json", {"specs": [[{"degre": 2}]]})
    rc, _, err = run(capsys, "tau-mkp", "--specs", specs)
    assert rc == 2 and "unknown spec term fields" in err


@pytest.mark.parametrize(
    "flag, body, needle",
    [
        ("--specs", {"specs": [[{"degree": True, "coeff": "1"}]]}, "degree"),
        ("--profile", {"n_parts": [True], "specs": [[{"degree": 2}]]}, "n_parts"),
        ("--specs", {"specs": [[{"degree": 2}]], "ncomp": True}, "ncomp"),
        ("--specs", {"specs": [[{"degree": 2}]], "ncomp": 1.0}, "ncomp"),
    ],
)
def test_booleans_are_not_integers(capsys, tmp_path, flag, body, needle):
    path = write_json(tmp_path, "input.json", body)
    command = "tau-mkp" if flag == "--specs" else "tau-mnkdv"
    rc, out, err = run(capsys, command, flag, path)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and needle in err and err.count("\n") == 1


def test_tau_mnkdv_collection(capsys, tmp_path):
    profile = write_json(tmp_path, "profile.json", PROFILE_11)
    rc, out, _ = run(capsys, "tau-mnkdv", "--profile", profile)
    assert rc == 0
    assert all(line.startswith("tau[") for line in out.strip().splitlines())


def test_akns_single_entry(capsys):
    rc, out, _ = run(capsys, "akns", "--m1", "2", "--m2", "2", "--p", "1")
    assert rc == 0
    assert out == "2*x1\n"
    # p = K is the last label inside the polyhedron
    rc, out, _ = run(capsys, "akns", "--m1", "2", "--m2", "2", "--p", "2")
    assert rc == 0 and out == "-1\n"


@pytest.mark.parametrize("p", ["-1", "3"])
def test_akns_rejects_p_outside_0_to_k(capsys, p):
    rc, out, err = run(capsys, "akns", "--m1", "2", "--m2", "2", "--p", p)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--p" in err and err.count("\n") == 1


def test_akns_collection_lines(capsys):
    rc, out, _ = run(capsys, "akns", "--m1", "2", "--m2", "2")
    assert rc == 0
    assert out.splitlines() == [
        "tau[0,2] = -1",
        "tau[1,1] = 2*x1",
        "tau[2,0] = -1",
    ]


def test_list_periodic_exact(capsys):
    rc, out, _ = run(capsys, "list-periodic", "--n", "2", "--max-size", "8")
    assert rc == 0
    assert out.splitlines() == ["()", "1", "2,1", "3,2,1"]


def test_list_periodic_json(capsys):
    rc, out, _ = run(capsys, "list-periodic", "--n", "3", "--max-size", "5", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["partitions"] == [[], [1], [1, 1], [2], [2, 1, 1], [3, 1], [3, 1, 1]]


# -- degree cap ------------------------------------------------------------------


def test_degree_cap_blocks_construction(capsys, monkeypatch):
    monkeypatch.setenv("TAUFORGE_MAX_DEGREE", "2")
    rc, _, err = run(capsys, "schur", "5")
    assert rc == 2
    assert "exceeds the cap 2" in err


def test_degree_cap_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("TAUFORGE_MAX_DEGREE", "lots")
    rc, _, err = run(capsys, "schur", "1")
    assert rc == 2 and "must be an integer" in err


# -- verification ---------------------------------------------------------------


def test_verify_kp_zero_shifts(capsys):
    rc, out, _ = run(capsys, "verify", "--what", "kp", "--partition", "2,1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "PASS kp-residue j=0 n=1"
    assert lines[-1] == "all 1 checks passed"


def test_verify_kp_random_trials(capsys):
    args = (
        "verify", "--what", "kp", "--partition", "2,2",
        "--shifts", "random", "--trials", "3", "--seed", "7",
    )
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    assert out.strip().splitlines()[-1] == "all 3 checks passed"
    rc2, out2, _ = run(capsys, *args)
    assert rc2 == 0 and out2 == out  # seeded runs are reproducible


def test_verify_kp_shift_file(capsys, tmp_path):
    shifts = write_json(tmp_path, "shifts.json", {"1": ["1/2", 1], "2": ["-2"]})
    rc, out, _ = run(
        capsys, "verify", "--what", "kp", "--partition", "2,1", "--shifts", shifts
    )
    assert rc == 0


def test_verify_kp_detects_unreduced_tau(capsys):
    rc, out, _ = run(
        capsys, "verify", "--what", "kp", "--partition", "1,1", "--n", "2", "--j", "1"
    )
    assert rc == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("FAIL kp-residue")
    assert lines[-1] == "1 of 1 checks FAILED"


def test_verify_nkdv(capsys):
    rc, out, _ = run(
        capsys, "verify", "--what", "nkdv", "--partition", "3,2,1", "--n", "2",
        "--shifts", "random", "--seed", "1",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS reduction-derivative")
    assert lines[-1] == "all 3 checks passed"  # reduction + hirota j=0,1


def test_verify_nkdv_expands_each_tau_once(capsys, monkeypatch):
    # every j of one shift set reads one Schur expansion of its tau
    calls = []
    expand = fermion.fock_states
    monkeypatch.setattr(fermion, "fock_states", lambda *a: calls.append(1) or expand(*a))
    rc, out, _ = run(
        capsys, "verify", "--what", "nkdv", "--partition", "3,2,1", "--n", "2",
        "--shifts", "random", "--j-max", "2", "--trials", "2",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert [line.split()[1] for line in lines[:4]] == ["reduction-derivative"] + ["kp-residue"] * 3
    assert [line.split()[2] for line in lines[1:4]] == ["j=0", "j=1", "j=2"]
    assert lines[-1] == "all 8 checks passed"
    assert len(calls) == 2  # one per shift set; one per j would be 6


def test_verify_mkp(capsys, tmp_path):
    specs = write_json(tmp_path, "specs.json", TWO_COMPONENT_SPECS)
    rc, out, _ = run(capsys, "verify", "--what", "mkp", "--specs", specs)
    assert rc == 0
    assert out.strip().splitlines()[-1] == "all 8 checks passed"


def test_verify_mnkdv_and_reduction(capsys, tmp_path):
    profile = write_json(tmp_path, "profile.json", PROFILE_11)
    rc, out, _ = run(capsys, "verify", "--what", "mnkdv", "--profile", profile)
    assert rc == 0
    rc, out2, _ = run(capsys, "verify", "--what", "reduction", "--profile", profile)
    assert rc == 0
    assert len(out2.strip().splitlines()) < len(out.strip().splitlines())


def test_verify_akns_default_k(capsys):
    rc, out, _ = run(capsys, "verify", "--what", "akns", "--m1", "2", "--m2", "2")
    assert rc == 0
    assert out.strip().splitlines() == ["PASS akns-pde base=[1, 1]", "all 1 checks passed"]


def test_verify_akns_truncated_k_fails(capsys):
    rc, out, _ = run(
        capsys, "verify", "--what", "akns", "--m1", "3", "--m2", "3", "--k", "2"
    )
    assert rc == 1
    assert out.strip().splitlines()[-1] == "1 of 1 checks FAILED"


def test_verify_akns_with_parameters(capsys):
    rc, out, _ = run(
        capsys, "verify", "--what", "akns", "--m1", "3", "--m2", "2",
        "--b1", "2", "--b2=-1/3", "--c1", "1/2,1", "--c2", "0,1/5",
    )
    assert rc == 0
    assert out.strip().splitlines()[-1] == "all 2 checks passed"


def test_verify_json_omits_timing_by_default(capsys):
    rc, out, _ = run(
        capsys, "verify", "--what", "kp", "--partition", "2,1", "--json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["reports"] and all("time_ms" not in r for r in payload["reports"])
    rc, out, _ = run(
        capsys, "verify", "--what", "kp", "--partition", "2,1", "--json", "--timings"
    )
    payload = json.loads(out)
    assert all("time_ms" in r for r in payload["reports"])
    # only verify reads --timings, so only verify takes it
    with pytest.raises(SystemExit) as exc:
        main(["tau-kp", "--partition", "2,1", "--json", "--timings"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --timings" in capsys.readouterr().err


EMPTY_PROFILE = {
    "n_parts": [2, 1],
    "specs": [
        [{"degree": 2, "coeff": "1"}, {"degree": 2, "coeff": "2"}],
        [{"degree": 2, "coeff": "3", "shift": ["1"]}, {"degree": 2, "coeff": "-1"}],
    ],
}


def test_verify_with_no_checks_is_an_error(capsys, tmp_path):
    rc, out, err = run(
        capsys, "verify", "--what", "kp", "--partition", "2,1",
        "--shifts", "random", "--trials", "0",
    )
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # a reduced profile whose collection has no nonzero entry
    profile = write_json(tmp_path, "profile.json", EMPTY_PROFILE)
    rc, out, err = run(capsys, "verify", "--what", "mnkdv", "--profile", profile)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_requires_needed_arguments(capsys):
    rc, _, err = run(capsys, "verify", "--what", "kp")
    assert rc == 2 and "--partition" in err
    rc, _, err = run(capsys, "verify", "--what", "akns", "--m1", "2", "--m2", "2", "--k", "1")
    assert rc == 2 and "K >= 2" in err


@pytest.mark.parametrize("what, source", [("nkdv", None), ("mnkdv", PROFILE_11)])
def test_verify_rejects_negative_j_max(capsys, tmp_path, what, source):
    # --j-max -1 ran only the reduction checks and still reported success
    if source is None:
        args = ["--partition", "2,1", "--n", "2"]
    else:
        args = ["--profile", write_json(tmp_path, "profile.json", source)]
    rc, out, err = run(capsys, "verify", "--what", what, *args, "--j-max", "-1")
    assert rc == 2 and out == ""
    assert err == "error: --j-max must be >= 0\n"


@pytest.mark.parametrize("what", ["nkdv", "reduction"])
def test_verify_names_the_d_max_flag(capsys, tmp_path, what):
    if what == "nkdv":
        args = ["--partition", "2,1", "--n", "2"]
    else:
        args = ["--profile", write_json(tmp_path, "profile.json", PROFILE_11)]
    rc, out, err = run(capsys, "verify", "--what", what, *args, "--d-max", "0")
    assert rc == 2 and out == ""
    assert err == "error: --d-max must be >= 1\n"


# sha256 of the --json stdout of each construction on fixed inputs, recorded
# before the constructors were moved onto shifted Schur tables: a change to
# any of these bytes must be deliberate.
PINNED_JSON = {
    "tau-kp": (
        ["--partition", "3,1,1", "--shifts", "@kp_shifts"],
        "1c876ed983800353a307a63384f714c05f1a4d4e1ab19f31e9b86cc738d49a46",
    ),
    "tau-nkdv": (
        ["--partition", "3,2,1", "--n", "2", "--shifts", "@nkdv_shifts"],
        "a6ac43d5d1b67401d48f6cee77b3690bf045ff2fd6ea810e647cb93751e6ff57",
    ),
    "tau-mkp": (
        ["--specs", "@specs"],
        "b6d7ca40c7f6b67a17898e0d27c2175ab700771b61493460bfc723ed5d887900",
    ),
    "tau-mkp --charge": (
        ["--specs", "@specs", "--charge", "1,1,1"],
        "67fc2204d4988be71c72d482b331b799af64d87ad589b906295c004d3be83f37",
    ),
    "tau-mnkdv": (
        ["--profile", "@profile"],
        "d93007d34923a5da6046d4d7ac5a739d4793eeb03a2ced61542650d081041273",
    ),
    "akns": (
        ["--m1", "3", "--m2", "2", "--b1", "2", "--c1", "1/2,-1", "--c2", "0,3"],
        "a89a619f72948613c5c6e9c8e92246665f1f99912427f46d55b75a4949855338",
    ),
}
PINNED_INPUTS = {
    "kp_shifts": {"1": ["1/2", -1, 2], "2": [3], "3": ["-2/3"]},
    "nkdv_shifts": {"0": [1, "1/2", 3], "1": ["-1/3", 2]},
    "specs": {
        "specs": [
            [{"degree": 3, "shift": ["1/2", -1]}, {"degree": 2, "coeff": -2}, {"degree": 1, "coeff": 0}],
            [{"degree": 2, "coeff": 3}, None, {"degree": 3, "shift": [1]}],
            [{"degree": 1}, {"degree": 3, "coeff": "2/3", "shift": [0, 2]}, {"degree": 2}],
        ]
    },
    "profile": {
        "n_parts": [3, 2],
        "specs": [
            [{"degree": 5, "shift": [1, 0, 2]}, {"degree": 3, "coeff": 2}],
            [{"degree": 2}, {"degree": 1, "coeff": "1/2"}],
        ],
    },
}
PINNED_INPUTS["case"] = [
    {
        "kind": "mkp",
        "specs": PINNED_INPUTS["specs"]["specs"],
        "charges": [[1, 1, 1], [3, 0, 0], [0, 1, 2], [2, 1, 0]],
    },
    {"kind": "kp", "partition": [3, 1], "shifts": {"1": ["1/2", -1], "2": [3]}},
]


def _pinned_run(capsys, tmp_path, name, args):
    files = {key: write_json(tmp_path, key + ".json", obj) for key, obj in PINNED_INPUTS.items()}
    argv = [name.split()[0]] + [files[a[1:]] if a.startswith("@") else a for a in args]
    rc, out, err = run(capsys, *argv, "--json")
    return rc, hashlib.sha256(out.encode()).hexdigest(), err


@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_construction_json_bytes_are_pinned(capsys, tmp_path, name):
    args, digest = PINNED_JSON[name]
    assert _pinned_run(capsys, tmp_path, name, args) == (0, digest, "")


# sha256 of `schur j --component 2` in text and --json, recorded before the
# Schur tables moved onto their closed form over partitions.
PINNED_SCHUR = {
    0: ("4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "5e3037dc0f902d9ecb34e6d9249c614b917dfe485c756e61a01d14ffa3a9c2f5"),
    1: ("1069676f0d3c91ccea1bd405173844a67e5d4b947cc79a0f13e4c6c5ef929e2f",
        "44c23831b05472a1446ffda6ecfdfc6b497995d5032bbdbd8c5304599c5af1fc"),
    7: ("ddc0f5a7fe265e5ae7e7f54425886b0c45cf8b5a76b59550478ad200cd79499c",
        "66bfc8e18f41434bcedfa0d572e9ba267ab5e5ffd3a4a74c726777e58dd63308"),
    12: ("58b788a0611d49f7ed8bef80f4e1756b003d31eedbd76871a0096562895dac58",
         "4806888be90a034572864a6772e0ed466ebdb4d0b7af38f210b1a2845afaea29"),
    20: ("59fcf1f875ba93a59fe90a568ad3416871f93b66c677b9ae936596ae0a20ecbd",
         "c91fae45353cafe477b82f2ec540a0f15890e5534f844c6cc9f0196b9e62828f"),
}


@pytest.mark.parametrize("j", sorted(PINNED_SCHUR))
def test_schur_bytes_are_pinned(capsys, j):
    for extra, digest in zip(([], ["--json"]), PINNED_SCHUR[j]):
        rc, out, err = run(capsys, "schur", str(j), "--component", "2", *extra)
        assert (rc, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, ""), extra


# The same for the checks and the oracle comparison, with their exit codes,
# recorded before every construction and check moved onto one
# sum-of-products kernel.
PINNED_CHECK_JSON = {
    "verify akns": (
        ["--what", "akns", "--m1", "3", "--m2", "2", "--b1", "2", "--c1", "1/2,-1", "--c2", "0,3"],
        0,
        "85c4b2cf808173398348947e7a1c06a0613a122dd514c738ff2753663b5278bd",
    ),
    "verify akns --k": (
        ["--what", "akns", "--m1", "3", "--m2", "3", "--k", "2"],
        1,
        "6ec8c0f0a19d77538a9c298894ac4b61a4f97d239eb3e93e53f746e2c4688b05",
    ),
    "verify mkp": (
        ["--what", "mkp", "--specs", "@specs"],
        0,
        "59707747c20d0b4f91462d1b4c2c4c8a2163e7d8fd9c91e5858f0b4e90010189",
    ),
    "verify mnkdv": (
        ["--what", "mnkdv", "--profile", "@profile", "--j-max", "2"],
        0,
        "d338eeeba8a0a5438f497685ea342aa6cf18c2375059886cb07ece94def27585",
    ),
    "oracle-compare": (
        ["--case", "@case"],
        0,
        "1708ac749dd15f83bd7131ef0bb204ac31bf84994afaeb81f53da16bbc3e8ad2",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECK_JSON))
def test_check_json_bytes_are_pinned(capsys, tmp_path, name):
    args, code, digest = PINNED_CHECK_JSON[name]
    assert _pinned_run(capsys, tmp_path, name, args) == (code, digest, "")


# sha256 of the --json stdout, the same before the renderers read the integer
# numerators, and the exit code of each run.
RENDERED = {
    ("verify", "--what", "kp", "--partition", "3,2,1", "--j", "1"):
        (1, "a13c044110aba9c203f58bc242d58c7c8ca0efe76745f1cbf1869a209a35c056"),
    ("tau-kp", "--partition", "3,2,1"):
        (0, "bebf30cec2e8befb31e6665c0a2b3c002c33451eb1d850c94fc3f99d0d57c0ef"),
    ("akns", "--m1", "3", "--m2", "2"):
        (0, "74474c820760f3f4156b81580dd2687300ffb471a5f77a264af98b207568abcc"),
}


@pytest.mark.parametrize("argv", sorted(RENDERED))
def test_each_mode_renders_only_what_it_prints(capsys, monkeypatch, argv):
    # text mode builds no JSON object, and a text-mode verify renders no
    # obstruction; --json prints the pinned bytes
    calls = {"__str__": 0, "to_json_obj": 0}
    for name in calls:
        method = getattr(Poly, name)

        def counted(self, method=method, name=name):
            calls[name] += 1
            return method(self)

        monkeypatch.setattr(Poly, name, counted)
    code, digest = RENDERED[argv]
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (code, "") and out
    assert calls["to_json_obj"] == 0
    assert calls["__str__"] == (0 if argv[0] == "verify" else len(out.splitlines()))
    rc, out, err = run(capsys, argv[0], "--json", *argv[1:])
    assert (rc, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, "")
    assert calls["__str__"] > 0


def test_one_parser_serves_every_call(capsys, tmp_path):
    # The same process runs a construction, a rejected argv and the
    # construction again: the rejection exits 2 as before, the repeat prints
    # the same bytes, and no call builds a second parser.
    main(["schur", "0"])
    capsys.readouterr()
    built = build_parser.cache_info().misses
    args, digest = PINNED_JSON["akns"]
    first = _pinned_run(capsys, tmp_path, "akns", args)
    with pytest.raises(SystemExit) as exc:
        main(["akns", "--m1", "x", "--m2", "2"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert _pinned_run(capsys, tmp_path, "akns", args) == first == (0, digest, "")
    assert build_parser.cache_info().misses == built == 1


def test_shared_parser_is_safe_across_threads():
    argvs = [
        ["akns", "--m1", "3", "--m2", "2", "--p", "1", "--json"],
        ["verify", "--what", "kp", "--partition", "2,1", "--trials", "3"],
        ["tau-mkp", "--specs", "s.json", "--charge", "2,0"],
        ["list-periodic", "--n", "2", "--max-size", "6"],
    ]
    parser = build_parser()
    expected = [vars(parser.parse_args(argv)) for argv in argvs]
    results: list[list[tuple]] = [[] for _ in range(4)]

    def work(k):
        for _ in range(50):
            for argv in argvs[k:] + argvs[:k]:
                results[k].append((argv, vars(parser.parse_args(argv))))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == 50 * len(argvs)
        assert all(ns == expected[argvs.index(argv)] for argv, ns in got)


# -- oracle comparison -------------------------------------------------------------


def test_oracle_compare_matches(capsys, tmp_path):
    case = write_json(
        tmp_path,
        "case.json",
        [
            {"kind": "kp", "partition": [2, 1], "shifts": {"1": ["1/2"], "2": [3]}},
            {"kind": "mkp", "specs": TWO_COMPONENT_SPECS["specs"]},
        ],
    )
    rc, out, _ = run(capsys, "oracle-compare", "--case", case)
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("MATCH") for line in lines[:-1])
    assert lines[-1] == "all 4 comparisons match"


def test_oracle_compare_rejects_unknown_kind(capsys, tmp_path):
    case = write_json(tmp_path, "case.json", {"kind": "akns"})
    rc, _, err = run(capsys, "oracle-compare", "--case", case)
    assert rc == 2 and "kind" in err


@pytest.mark.parametrize("charges", [[[None, 2]], [3], [[1, True]]])
def test_oracle_compare_charges_must_be_integer_arrays(capsys, tmp_path, charges):
    case = write_json(
        tmp_path,
        "case.json",
        {"kind": "mkp", "specs": TWO_COMPONENT_SPECS["specs"], "charges": charges},
    )
    rc, out, err = run(capsys, "oracle-compare", "--case", case)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "charges" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "charges, message",
    [
        ([[1, 1], [2, 0, 0]], "all specs must agree with the charge arity"),
        ([[1, 1], [2, 1]], "charge (2, 1) must sum to the column count 2"),
        ([[1, 1], [3, -1]], "charge (3, -1) has negative parts"),
    ],
)
def test_oracle_compare_rejects_charges_off_the_level(capsys, tmp_path, charges, message):
    case = write_json(
        tmp_path,
        "case.json",
        {"kind": "mkp", "specs": TWO_COMPONENT_SPECS["specs"], "charges": charges},
    )
    rc, out, err = run(capsys, "oracle-compare", "--case", case)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("partition", [[2.5, "1"], [True, True], [2, None]])
def test_oracle_compare_partition_parts_must_be_integers(capsys, tmp_path, partition):
    case = write_json(tmp_path, "case.json", {"kind": "kp", "partition": partition})
    rc, out, err = run(capsys, "oracle-compare", "--case", case)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "partition" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "body", [[], {"kind": "mkp", "specs": TWO_COMPONENT_SPECS["specs"], "charges": []}]
)
def test_oracle_compare_with_no_comparisons_is_an_error(capsys, tmp_path, body):
    case = write_json(tmp_path, "case.json", body)
    rc, out, err = run(capsys, "oracle-compare", "--case", case)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_closed_stdout_pipe_exits_141_without_traceback():
    # The read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE whatever the timing.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tauforge", "akns", "--m1", "2", "--m2", "2", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# -- every diagnostic, word for word ------------------------------------------------

# One input per distinct error line that the input loaders raise, with its
# exact stderr.  A non-string argv item is written, as JSON (or as raw bytes),
# to a file in the working directory and passed by its name; a leading
# "TAUFORGE_MAX_DEGREE=..." item sets the degree cap.  Where an input is
# invalid in several ways, the line pins which error is reported first.
SPECS_22 = {"specs": [[{"degree": 2}, {"degree": 1}], [{"degree": 1}, {"degree": 2}]]}
ONE_SPEC = [[{"degree": 2}]]
DIAGNOSTICS = {
    "cap-not-integer": (["TAUFORGE_MAX_DEGREE=lots", "schur", "1"],
                        "TAUFORGE_MAX_DEGREE must be an integer, got 'lots'"),
    "cap-negative": (["TAUFORGE_MAX_DEGREE=-1", "schur", "1"], "TAUFORGE_MAX_DEGREE must be >= 0"),
    "cap-partition": (["TAUFORGE_MAX_DEGREE=2", "tau-kp", "--partition", "2,1"],
                      "weighted degree 3 exceeds the cap 2; raise TAUFORGE_MAX_DEGREE to allow it"),
    "cap-specs": (["TAUFORGE_MAX_DEGREE=3", "tau-mkp", "--specs", SPECS_22],
                  "weighted degree 4 exceeds the cap 3; raise TAUFORGE_MAX_DEGREE to allow it"),
    "cap-profile": (["TAUFORGE_MAX_DEGREE=5", "tau-mnkdv", "--profile",
                     {"n_parts": [2], "specs": [[{"degree": 3}]]}],
                    "weighted degree 6 exceeds the cap 5; raise TAUFORGE_MAX_DEGREE to allow it"),
    "cap-akns": (["TAUFORGE_MAX_DEGREE=3", "akns", "--m1", "2", "--m2", "2"],
                 "weighted degree 4 exceeds the cap 3; raise TAUFORGE_MAX_DEGREE to allow it"),
    "partition-zero-part": (["tau-kp", "--partition", "2,0"], "parts must be positive integers, got 0"),
    "partition-increasing": (["tau-kp", "--partition", "1,2"], "parts must be weakly decreasing"),
    "partition-not-integers": (["tau-kp", "--partition", "2,x"], "not a partition: '2,x'"),
    "partition-not-periodic": (["tau-nkdv", "--partition", "2,2", "--n", "2"],
                               "partition (2,2) is not 2-periodic"),
    "tau-nkdv-partition-before-n": (["tau-nkdv", "--partition", "1,2", "--n", "1"],
                                    "parts must be weakly decreasing"),
    "tau-nkdv-n-before-cap": (["TAUFORGE_MAX_DEGREE=2", "tau-nkdv", "--partition", "3,2,1",
                               "--n", "1"], "--n must be >= 2"),
    "profile-checked-before-cap": (["TAUFORGE_MAX_DEGREE=1", "tau-mnkdv", "--profile",
                                    {"n_parts": [1], "specs": [[{"degree": 3}]]}],
                                   "need fewer columns than the total reduction order"),
    "file-missing": (["tau-kp", "--partition", "2,1", "--shifts", "absent.json"],
                     "cannot read absent.json: [Errno 2] No such file or directory: 'absent.json'"),
    "file-not-json": (["tau-kp", "--partition", "2,1", "--shifts", b"{not json"],
                      "input4.json is not valid JSON: Expecting property name enclosed in"
                      " double quotes: line 1 column 2 (char 1)"),
    "shifts-not-object": (["tau-kp", "--partition", "2,1", "--shifts", []],
                          "column shift file must be a JSON object"),
    "shifts-label-not-integer": (["tau-kp", "--partition", "2,1", "--shifts", {"x": [1]}],
                                 "column label must be an integer, got 'x'"),
    "shifts-label-outside": (["tau-kp", "--partition", "2,1", "--shifts", {"3": [1]}],
                             "column label 3 outside 1..2"),
    "shifts-class-outside": (["tau-nkdv", "--partition", "2,1", "--n", "2", "--shifts", {"2": [1]}],
                             "residue class label 2 outside 0..1"),
    "shifts-value-not-array": (["tau-kp", "--partition", "2,1", "--shifts", {"1": 5}],
                               'shift value must be an array or "zero", got 5'),
    "shifts-too-long": (["tau-kp", "--partition", "2,1", "--shifts", {"2": [1, 2, 3]}],
                        "column 2 shift vector longer than 1 entries"),
    "rational-float": (["tau-kp", "--partition", "2,1", "--shifts", {"1": [1.5]}],
                       "floats are not exact; write 1.5 as a string fraction"),
    "rational-bool": (["tau-kp", "--partition", "2,1", "--shifts", {"1": [True]}],
                      "not a rational: True"),
    "rational-zero-denominator": (["tau-kp", "--partition", "2,1", "--shifts", {"1": ["1/0"]}],
                                  "not a rational: '1/0'"),
    "rational-null": (["tau-kp", "--partition", "2,1", "--shifts", {"1": [None]}],
                      "not a rational: None"),
    "charge-not-integers": (["tau-mkp", "--specs", SPECS_22, "--charge", "x"],
                            "not a charge vector: 'x'"),
    "charge-wrong-sum": (["tau-mkp", "--specs", SPECS_22, "--charge", "3,0"],
                         "charge (3, 0) must sum to the column count 2"),
    "charge-wrong-arity": (["tau-mnkdv", "--profile", PROFILE_11, "--charge", "1,1,1"],
                           "charge must have 2 parts"),
    "spec-column-empty": (["tau-mkp", "--specs", {"specs": [[]]}],
                          "each spec column must be a non-empty array of term objects"),
    "spec-term-not-object": (["tau-mkp", "--specs", {"specs": [[5]]}],
                             "spec term must be an object or null, got 5"),
    "spec-term-unknown-field": (["tau-mkp", "--specs", {"specs": [[{"degre": 2}]]}],
                                "unknown spec term fields: ['degre']"),
    "spec-degree-bool": (["tau-mkp", "--specs", {"specs": [[{"degree": True}]]}],
                         "degree must be a positive integer, got True"),
    "spec-all-zero": (["tau-mkp", "--specs", {"specs": [[{"degree": 2, "coeff": 0}]]}],
                      "at least one component coefficient must be nonzero"),
    "specs-missing": (["tau-mkp", "--specs", {"ncomp": 1}], 'specs file needs a "specs" array'),
    "specs-empty": (["tau-mkp", "--specs", {"specs": []}],
                    "specs must be a non-empty array of columns"),
    "specs-ragged": (["tau-mkp", "--specs", {"specs": [[{"degree": 1}], [{"degree": 1}, None]]}],
                     "all spec columns must list the same number of components"),
    "specs-ncomp-bool": (["tau-mkp", "--specs", {"specs": ONE_SPEC, "ncomp": True}],
                         "ncomp must be an integer, got True"),
    "specs-ncomp-mismatch": (["tau-mkp", "--specs", {"specs": ONE_SPEC, "ncomp": 2}],
                             "declared ncomp 2 does not match columns (1)"),
    "profile-not-object": (["tau-mnkdv", "--profile", []], "profile file must be a JSON object"),
    "profile-no-n-parts": (["tau-mnkdv", "--profile", {"specs": ONE_SPEC}],
                           'profile needs a non-empty "n_parts" array'),
    "profile-float-n-parts": (["tau-mnkdv", "--profile", {"n_parts": [2.0], "specs": ONE_SPEC}],
                              "n_parts entries must be integers"),
    "profile-no-specs": (["tau-mnkdv", "--profile", {"n_parts": [2]}],
                         'profile needs a "specs" array'),
    "profile-orders-increasing": (["tau-mnkdv", "--profile",
                                   {"n_parts": [1, 2], "specs": [[None, {"degree": 1}]]}],
                                  "reduction orders must be weakly decreasing"),
    "profile-order-zero": (["tau-mnkdv", "--profile", {"n_parts": [0], "specs": ONE_SPEC}],
                           "reduction orders must be >= 1"),
    "profile-arity": (["tau-mnkdv", "--profile", {"n_parts": [2, 1], "specs": ONE_SPEC}],
                      "spec component count must match n_parts"),
    "profile-too-many-columns": (["tau-mnkdv", "--profile", {"n_parts": [1], "specs": ONE_SPEC}],
                                 "need fewer columns than the total reduction order"),
    "akns-orders": (["akns", "--m1", "0", "--m2", "2"], "--m1 and --m2 must be >= 1"),
    "akns-k": (["akns", "--m1", "2", "--m2", "2", "--k", "0"], "--k must be >= 1"),
    "akns-p": (["akns", "--m1", "2", "--m2", "2", "--p", "3"], "--p must lie in 0..2, got 3"),
    "akns-b1": (["akns", "--m1", "2", "--m2", "2", "--b1", "x"], "not a rational: 'x'"),
    "akns-c1-empty-entry": (["akns", "--m1", "2", "--m2", "2", "--c1", "1,,2"], "not a rational: ''"),
    "schur-index": (["schur", "--", "-1"], "the index must be >= 0"),
    "schur-component": (["schur", "1", "--component", "0"], "--component must be >= 1"),
    "list-periodic-size": (["list-periodic", "--n", "2", "--max-size", "-1"],
                           "--max-size must be >= 0"),
    "list-periodic-n": (["list-periodic", "--n", "1", "--max-size", "3"], "--n must be >= 2"),
    "verify-kp-needs": (["verify", "--what", "kp"], "verify --what kp needs --partition"),
    "verify-nkdv-needs": (["verify", "--what", "nkdv", "--partition", "2,1"],
                          "verify --what nkdv needs --partition and --n"),
    "verify-mkp-needs": (["verify", "--what", "mkp"], "verify --what mkp needs --specs"),
    "verify-mnkdv-needs": (["verify", "--what", "mnkdv"], "verify --what mnkdv needs --profile"),
    "verify-reduction-needs": (["verify", "--what", "reduction"],
                               "verify --what reduction needs --profile"),
    "verify-akns-needs": (["verify", "--what", "akns", "--m1", "2"],
                          "verify --what akns needs --m1 and --m2"),
    "verify-nkdv-n-before-j-max": (["verify", "--what", "nkdv", "--partition", "2,1", "--n", "1",
                                    "--j-max", "-1"], "--n must be >= 2"),
    "verify-nkdv-j-max-before-partition": (["verify", "--what", "nkdv", "--partition", "1,2",
                                            "--n", "2", "--j-max", "-1"], "--j-max must be >= 0"),
    "verify-nkdv-d-max": (["verify", "--what", "nkdv", "--partition", "2,1", "--n", "2",
                           "--d-max", "0"], "--d-max must be >= 1"),
    "verify-mnkdv-profile-before-j-max": (["verify", "--what", "mnkdv", "--profile",
                                           {"n_parts": [2.0], "specs": ONE_SPEC}, "--j-max", "-1"],
                                          "n_parts entries must be integers"),
    "verify-akns-k": (["verify", "--what", "akns", "--m1", "2", "--m2", "2", "--k", "1"],
                      "the differential check needs K >= 2 (two lattice neighbors)"),
    "verify-akns-b1-before-k": (["verify", "--what", "akns", "--m1", "2", "--m2", "2", "--k", "1",
                                 "--b1", "x"], "not a rational: 'x'"),
    "verify-akns-no-base": (["verify", "--what", "akns", "--m1", "1", "--m2", "1", "--k", "2"],
                            "no interior base label with a nonzero tau"),
    "verify-akns-base": (["verify", "--what", "akns", "--m1", "2", "--m2", "2", "--base", "x"],
                         "not a charge vector: 'x'"),
    "verify-kp-n": (["verify", "--what", "kp", "--partition", "2,1", "--n", "0"],
                    "--n must be >= 1"),
    "verify-kp-j": (["verify", "--what", "kp", "--partition", "2,1", "--j", "-1"],
                    "--j must be >= 0"),
    "verify-no-checks": (["verify", "--what", "kp", "--partition", "2,1", "--shifts", "random",
                          "--trials", "0"], "no checks were run; nothing was verified"),
    "oracle-partition-string": (["oracle-compare", "--case", {"kind": "kp", "partition": "21"}],
                                'kp case needs a "partition" array of integers'),
    "oracle-partition-zero-part": (["oracle-compare", "--case", {"kind": "kp", "partition": [2, 0]}],
                                   "parts must be positive integers, got 0"),
    "oracle-shifts-null": (["oracle-compare", "--case",
                            {"kind": "kp", "partition": [2, 1], "shifts": None}],
                           "column shift file must be a JSON object"),
    "oracle-shifts-label": (["oracle-compare", "--case",
                             {"kind": "kp", "partition": [2, 1], "shifts": {"3": [1]}}],
                            "column label 3 outside 1..2"),
    "oracle-case-not-object": (["oracle-compare", "--case", [5]], "each case must be a JSON object"),
    "oracle-kind": (["oracle-compare", "--case", {"kind": "akns"}],
                    "case kind must be \"kp\" or \"mkp\", got 'akns'"),
    "oracle-charges": (["oracle-compare", "--case",
                        {"kind": "mkp", "specs": SPECS_22["specs"], "charges": [[None, 2]]}],
                       '"charges" must be an array of integer arrays'),
    "oracle-charge-negative": (["oracle-compare", "--case",
                                {"kind": "mkp", "specs": SPECS_22["specs"], "charges": [[3, -1]]}],
                               "charge (3, -1) has negative parts"),
    "oracle-no-comparisons": (["oracle-compare", "--case", []],
                              "no comparisons were run; nothing was compared"),
}


@pytest.mark.parametrize("name", sorted(DIAGNOSTICS))
def test_every_diagnostic_is_pinned(capsys, tmp_path, monkeypatch, name):
    argv, message = DIAGNOSTICS[name]
    monkeypatch.chdir(tmp_path)
    if argv[0].startswith("TAUFORGE_MAX_DEGREE="):
        monkeypatch.setenv("TAUFORGE_MAX_DEGREE", argv[0].split("=", 1)[1])
        argv = argv[1:]
    words = []
    for i, item in enumerate(argv):
        if not isinstance(item, str):
            path = tmp_path / f"input{i}.json"
            if isinstance(item, bytes):
                path.write_bytes(item)
            else:
                path.write_text(json.dumps(item), encoding="utf-8")
            item = path.name
        words.append(item)
    assert run(capsys, *words) == (2, "", f"error: {message}\n")


def test_missing_file_is_input_error(capsys, tmp_path):
    rc, _, err = run(capsys, "tau-mkp", "--specs", str(tmp_path / "absent.json"))
    assert rc == 2 and "cannot read" in err


# -- fuzzed input files ----------------------------------------------------------

_KEYS = st.sampled_from(
    ["specs", "ncomp", "degree", "coeff", "shift", "n_parts", "kind", "partition",
     "shifts", "charges", "0", "1", "2", "x"]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["zero", "1/2", "-3", "2.5", "1/0", "x", ""])
)
_ANY_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)
_SHIFT_FILE = st.dictionaries(
    st.sampled_from(["0", "1", "2", "3", "-1", "x"]),
    _LEAVES | st.lists(_LEAVES, max_size=4),
    max_size=3,
)
_TERM = st.none() | _LEAVES | st.fixed_dictionaries(
    {}, optional={"degree": _LEAVES, "coeff": _LEAVES, "shift": _ANY_JSON, "x": _LEAVES}
)
_SPECS = st.lists(st.lists(_TERM, max_size=3), max_size=3)
_SPECS_FILE = _SPECS | st.fixed_dictionaries({"specs": _SPECS}, optional={"ncomp": _LEAVES})
_PROFILE_FILE = st.fixed_dictionaries(
    {}, optional={"n_parts": st.lists(_LEAVES, max_size=3) | _LEAVES, "specs": _SPECS_FILE}
)
_CASE = st.fixed_dictionaries(
    {"kind": st.sampled_from(["kp", "mkp", "other"]) | _LEAVES},
    optional={
        "partition": st.lists(_LEAVES, max_size=3) | _LEAVES,
        "shifts": _SHIFT_FILE | _LEAVES,
        "specs": _SPECS_FILE | _LEAVES,
        "charges": st.lists(st.lists(st.integers(-2, 4), max_size=3) | _LEAVES, max_size=3)
        | _LEAVES,
    },
)
_FUZZ_COMMANDS = {
    "shift": [
        ["tau-kp", "--partition", "2,1", "--shifts"],
        ["tau-nkdv", "--partition", "2,1", "--n", "2", "--shifts"],
        ["verify", "--what", "kp", "--partition", "2,1", "--shifts"],
        ["verify", "--what", "nkdv", "--partition", "2,1", "--n", "2", "--shifts"],
    ],
    "spec": [["tau-mkp", "--specs"], ["verify", "--what", "mkp", "--specs"]],
    "profile": [["tau-mnkdv", "--profile"], ["verify", "--what", "mnkdv", "--profile"]],
    "case": [["oracle-compare", "--case"]],
}
_FUZZ_BODIES = {
    "shift": _SHIFT_FILE | _ANY_JSON,
    "spec": _SPECS_FILE | _ANY_JSON,
    "profile": _PROFILE_FILE | _ANY_JSON,
    "case": _CASE | st.lists(_CASE, max_size=2) | _ANY_JSON,
}


@pytest.mark.parametrize("kind", sorted(_FUZZ_COMMANDS))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_input_files_exit_cleanly(kind, data, capsys, tmp_path, monkeypatch):
    # A small degree cap keeps every accepted input cheap to construct.
    monkeypatch.setenv("TAUFORGE_MAX_DEGREE", "6")
    body = data.draw(_FUZZ_BODIES[kind], label="body")
    command = data.draw(st.sampled_from(_FUZZ_COMMANDS[kind]), label="command")
    path = write_json(tmp_path, "input.json", body)
    rc, _, err = run(capsys, *command, path)
    assert rc in (0, 1, 2)
    assert err == "" or (err.startswith("error:") and err.count("\n") == 1), err
