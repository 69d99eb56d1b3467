import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_end_to_end_scripts_succeed():
    # each run takes about 0.3 s; the summary line carries a timing, so only
    # its shape is fixed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        (["scripts/oracle_crosscheck.py", "--trials", "10", "--seed", "2"],
         r"all 38 comparisons match in \d+\.\d s"),
        (["scripts/verify_families.py", "--max-size", "4", "--seed", "3", "--trials", "1",
          "--j-max", "1"],
         r"all families verified in \d+\.\d s"),
    ]
    for argv, summary in runs:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert re.fullmatch(summary, proc.stdout.splitlines()[-1]), (argv, proc.stdout[-300:])


def test_cli_fingerprint_is_deterministic():
    # one line per argv, and the same lines from a second run: files are named
    # by their contents and no line carries a temporary path or a timing
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "scripts/cli_fingerprint.py", "--seed", "5", "--count", "60"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 60
        assert all(re.match(r"[0-9a-f]{64} (TAUFORGE_MAX_DEGREE=\S+ )?tauforge \S", line)
                   for line in lines)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
