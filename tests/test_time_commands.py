"""tools/time_commands.py times one command of a checkout and says how it ran."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_times_verify_algebra_on_a_data_config():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "time_commands.py"),
                          "verify-algebra", "--config",
                          str(ROOT / "tests" / "data" / "config_algebra.json"), "--rounds", "2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    tree, versions, command, times = run.stdout.splitlines()
    assert tree.startswith(f"monofield {ROOT / 'src' / 'monofield'} at ")
    assert re.fullmatch(r"numpy \S+, Python \S+, BLAS threads 1, \d+ CPUs", versions)
    assert command.startswith("verify-algebra on ") and command.endswith(", nmax 5: exit [0]")
    assert re.fullmatch(r"best \d+\.\d\d ms, median \d+\.\d\d ms over 2 rounds", times)


def test_times_a_named_comparison_config():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "time_commands.py"),
                          "emission", "--named", "emission-couplings-12", "--rounds", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[2] == \
        "emission on config emission-couplings-12, nmax 3: exit [0]"


def test_refuses_an_unknown_name():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "time_commands.py"),
                          "emission", "--named", "no-such-config"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "no config named 'no-such-config'; the names are algebra-tight, " in run.stderr
