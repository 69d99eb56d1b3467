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
