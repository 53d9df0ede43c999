"""Start-up cost: what importing the CLI and parsing its arguments load and keep."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monofield
from monofield import cli

DATA = Path(__file__).parent / "data"

# Runs in a fresh interpreter: all five commands, then matrix_exp, whose
# function-level import of scipy.linalg must still work.
CHILD = """
import contextlib, io, json, sys
import numpy as np
from monofield import cli
from monofield.algebra import mode_annihilator
from monofield.dynamics import matrix_exp
from monofield.hilbert import Operator, abstract_mode, build_layout

data, out = sys.argv[1:]
def run(command, config):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([command, "--config", f"{data}/{config}", "--out", out])

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

report = {"codes": [run("verify-algebra", "config_algebra.json"),
                    run("vacuum-energy", "config_vac.json"),
                    run("field-sweep", "config_field.json"),
                    run("compare-standard", "config_compare.json"),
                    run("compare-standard", "config_jc.json"),
                    run("emission", "config_emission.json")]}
report["scipy_after_commands"] = scipy_modules()
layout = build_layout([abstract_mode(1.0), abstract_mode(2.0)], 3)
a = mode_annihilator(layout, 1)
u = matrix_exp(Operator(layout, -0.7j * (a.data + a.dag().data)))
report["matrix_exp_blocks"] = u.data.shape == layout.block_shape
report["unitarity"] = float(np.abs((u.dag() @ u).toarray() - np.eye(layout.dimension)).max())
report["scipy_after"] = scipy_modules()
print(json.dumps(report))
"""


def test_no_command_loads_scipy(tmp_path):
    # the child imports the same monofield as this process, installed or not
    src = str(Path(monofield.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", CHILD, str(DATA), str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0, 0]
    assert report["scipy_after_commands"] == []
    assert report["matrix_exp_blocks"]
    assert report["unitarity"] < 1e-12
    assert "scipy.linalg" in report["scipy_after"]
    assert "scipy.integrate" not in report["scipy_after"]


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def recorded(monkeypatch):
    """Every command records (command, tolerance, seed, outdir) instead of running."""
    calls = []

    def recorder(name):
        def command(cfg, outdir, tol, seed):
            calls.append((name, tol, seed, outdir.name))
            return 0
        return command

    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name, recorder(name))
    return calls


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_successive_calls_keep_no_values(tmp_path, recorded):
    algebra, vac = DATA / "config_algebra.json", DATA / "config_vac.json"
    out = str(tmp_path / "a")
    assert run("verify-algebra", "--config", str(algebra), "--out", out,
               "--tolerance", "1e-6", "--seed", "7") == 0
    assert run("verify-algebra", "--config", str(algebra)) == 0
    assert run("vacuum-energy", "--config", str(vac), "--seed", "3") == 0
    assert run("compare-standard", "--config", str(DATA / "config_compare.json"),
               "--tolerance", "0.5") == 0
    assert run("field-sweep", "--config", str(DATA / "config_field.json"),
               "--out", out) == 0
    assert recorded == [
        ("verify-algebra", 1e-6, 7, "a"),
        ("verify-algebra", None, 0, ""),
        ("vacuum-energy", None, 3, ""),
        ("compare-standard", 0.5, 0, ""),
        ("field-sweep", None, 0, "a"),
    ]


def test_printed_tolerance_follows_each_call(tmp_path, capsys):
    config = DATA / "config_algebra.json"
    default = cli.load_config(config)[0].tolerance("algebra")
    for flags, tolerance in [(["--tolerance", "1e-6"], 1e-6), ([], default),
                             (["--tolerance", "0.25"], 0.25), ([], default)]:
        assert run("verify-algebra", "--config", str(config), "--out", str(tmp_path),
                   *flags) == 0
        assert f"(tolerance {tolerance!r})" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["bogus"], ["verify-algebra"],
                                  ["vacuum-energy", "--config", "c.json", "--seed", "x"],
                                  ["emission", "--config", "c.json", "--bogus"]],
                         ids=["no_command", "unknown_command", "no_config", "bad_seed",
                              "unknown_flag"])
def test_usage_errors_exit_2_between_good_calls(tmp_path, recorded, argv):
    vac = str(DATA / "config_vac.json")
    assert run("vacuum-energy", "--config", vac, "--seed", "4") == 0
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert run("vacuum-energy", "--config", vac) == 0
    assert recorded == [("vacuum-energy", None, 4, ""), ("vacuum-energy", None, 0, "")]
