import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(argv, **env):
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_end_to_end_scripts_succeed():
    # each run takes about 0.3 s; the summary line carries a timing, so only
    # its shape is fixed.  The crosscheck prints one line per comparison and
    # the sweep one per family member: 12 kp, 9 nkdv with one control per n, 7
    # mnkdv, 4 akns with a control each, and the 3-component mkp collection with
    # its control; a control's "ok" means it failed.
    runs = [
        (["scripts/oracle_crosscheck.py", "--trials", "10", "--seed", "2"],
         r"MATCH +kind=(kp partition|mkp charge)=\(.*\)", 38,
         r"all 38 comparisons match in \d+\.\d s"),
        (["scripts/verify_families.py", "--max-size", "4", "--seed", "3", "--trials", "1",
          "--j-max", "1", "--max-components", "3"],
         r"ok   (kp|nkdv|mnkdv|mkp|akns) .* \[\d+ checks\] \(\d+\.\d ms\)", 40,
         r"all families verified in \d+\.\d s"),
    ]
    for argv, member, count, summary in runs:
        proc = run_script(argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        *lines, last = proc.stdout.splitlines()
        assert len(lines) == count and all(re.fullmatch(member, line) for line in lines), argv
        assert re.fullmatch(summary, last), (argv, proc.stdout[-300:])
    assert re.search(r"^ok   mkp s=3 4x4 build=\d+\.\d ms \[210 checks\] \(\d+\.\d ms\)$",
                     proc.stdout, re.M)
    assert re.search(r"^ok   mkp s=3 4x4 control \[210 checks\]", proc.stdout, re.M)
    assert re.search(r"^ok   nkdv n=3 control \[3 checks\]", proc.stdout, re.M)
    assert re.search(r"^ok   akns M=\(3,3\) K=3 control \[2 checks\]", proc.stdout, re.M)


def test_the_smallest_kp_frontier_member_and_its_control():
    # one member above --max-size: tau_kp and verify_kp over the 3 partitions of 3,
    # and its control, whose "ok" means it failed
    proc = run_script(["scripts/verify_families.py", "--max-size", "2", "--max-kp-size", "3",
                       "--trials", "1", "--j-max", "0", "--max-components", "2"])
    assert proc.returncode == 0, proc.stderr
    frontier = [line for line in proc.stdout.splitlines() if line.startswith("ok   kp n=")]
    assert len(frontier) == 2, proc.stdout
    assert re.fullmatch(r"ok   kp n=3 partitions=3 build=\d+\.\d ms \[3 checks\] \(\d+\.\d ms\)",
                        frontier[0])
    assert re.fullmatch(r"ok   kp n=3 control \[1 checks\] \(\d+\.\d ms\)", frontier[1])


def test_the_smallest_akns_frontier_member_and_its_control():
    # one member above the fixed AKNS orders: (4, 4) over its 3 interior bases, and
    # its control, x_2 added to tau^(0, 4), whose "ok" means it failed
    proc = run_script(["scripts/verify_families.py", "--max-size", "2", "--max-akns-order", "4",
                       "--trials", "1", "--j-max", "0", "--max-components", "2"])
    assert proc.returncode == 0, proc.stderr
    frontier = [line for line in proc.stdout.splitlines() if "akns M=(4,4)" in line]
    assert len(frontier) == 2, proc.stdout
    assert re.fullmatch(r"ok   akns M=\(4,4\) K=4 build=\d+\.\d ms \[3 checks\] \(\d+\.\d ms\)",
                        frontier[0])
    assert re.fullmatch(r"ok   akns M=\(4,4\) K=4 control \[3 checks\] \(\d+\.\d ms\)", frontier[1])


def test_crosscheck_refusals_exit_2_with_one_line():
    # no trials compares nothing, which is no success; a drawn case above the
    # degree cap (here the partition (4, 4, 2, 1) of the second trial) is
    # refused as oracle-compare refuses it, not with a traceback
    runs = [
        (["--trials", "0"], {}, "error: no comparisons were run; nothing was compared"),
        (["--trials", "10", "--seed", "2"], {"TAUFORGE_MAX_DEGREE": "3"},
         "error: weighted degree 11 exceeds the cap 3; raise TAUFORGE_MAX_DEGREE to allow it"),
    ]
    for argv, env, message in runs:
        proc = run_script(["scripts/oracle_crosscheck.py", *argv], **env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n"), argv


def test_cli_fingerprint_is_deterministic():
    # one line per argv, and the same lines from a second run: files are named
    # by their contents and no line carries a temporary path or a timing
    outputs = []
    for _ in range(2):
        proc = run_script(["scripts/cli_fingerprint.py", "--seed", "5", "--count", "60"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 60
        assert all(re.match(r"[0-9a-f]{64} (TAUFORGE_MAX_DEGREE=\S+ )?tauforge \S", line)
                   for line in lines)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
