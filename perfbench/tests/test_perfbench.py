"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import exact  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_command(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_generation_is_deterministic(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    assert len({case.name for case in first}) == len(first)


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


def test_reference_kernel_process_never_imports_tauforge():
    # A whole benchmark run, in a process of its own, then a look at what it imported.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run;"
        "rc = run.main(['--workload', 'construct-oracle', '--seed', '1', '--seconds', '0.5']);"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'tauforge'))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


@pytest.mark.parametrize("workload", ["kp-residue", "mkp-families"])
@pytest.mark.parametrize("seed", [1, 2])
def test_every_perturbed_control_fails(workload, seed, tmp_path):
    cases = workloads.generate(workload, seed)
    runner = workloads.Runner(cases, seed, str(tmp_path))
    controls = [(i, c) for i, c in enumerate(cases) if c.control]
    assert controls
    for i, case in controls:
        result = runner.run(i, case)
        reports = result[1]
        assert reports and not all(r.passed for r in reports), case.name
        runner.check(case, result)  # the exact computation agrees it is no tau
        # Read as a true tau-function, the same result must be refused.
        with pytest.raises(workloads.CaseError):
            runner.check(workloads.Case(case.name, case.kind, case.data, False), result)


def test_a_case_without_checks_or_output_fails():
    case = workloads.Case("empty", "kp", {}, False)
    assert worker._verify(workloads.Runner, 0, case, (None, []), {})["status"] == "failed"
    cli_case = workloads.Case("empty", "tau-kp", {}, False)
    assert worker._verify(workloads.Runner, 0, cli_case, (0, ""), {})["status"] == "failed"


def test_exact_checks_on_known_polynomials():
    t = [("T", 1, i) for i in range(1, 4)]
    # s_2 = g1^2 / 2 + g2
    assert exact.schur_values([Fraction(3), Fraction(5)], 2) == [1, 3, Fraction(9, 2) + 5]
    assert exact.det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    point = exact.Point(0, "x")
    # t1^3/3 - t3 is the Schur polynomial of (2, 1), a KP tau-function; t1^2 is not.
    tau21 = [(Fraction(1, 3), {t[0]: 3}), (Fraction(-1), {t[2]: 1})]
    assert exact.hirota_kp_value(tau21, point) == 0
    assert exact.hirota_kp_value([(Fraction(1), {t[0]: 2})], point) != 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_command_prints_every_end_to_end_metric(workload):
    result = json.loads(_run_command(workload, 0)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = json.loads(_run_command("mkp-families", 1)[-1])
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["polycore.miwa_shift.distinct_ratio"]["value"] < 1
