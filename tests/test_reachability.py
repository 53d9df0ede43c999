"""tools/reachability.py lists the src/ functions no command reaches."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lists_unreached_functions_and_counts_them():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "reachability.py")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    *unreached, count = run.stdout.splitlines()
    match = re.fullmatch(r"(\d+) unreached of (\d+)", count)
    assert match and int(match[1]) == len(unreached) < int(match[2])
    assert all(re.fullmatch(r"\w+(\.[\w<>]+)+ \(line \d+\)", line) for line in unreached)
    # a refusal none of the data configs hits is listed, the command that ran is not
    names = {line.split()[0] for line in unreached}
    assert "cli._phase_refusal" in names
    assert "cli.cmd_emission" not in names
