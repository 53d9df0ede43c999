"""The benchmark's output checks are live: each accepts the program's real
output on a small generated config and rejects a perturbed copy of it."""

import contextlib
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from monofield import cli, fields, hilbert  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


def run_cli(command, doc, tmp_path):
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    return tmp_path


@contextlib.contextmanager
def perturbed(path, row, column, change):
    """Rewrite one CSV cell for the duration of the block."""
    original = path.read_text()
    rows = list(csv.DictReader(io.StringIO(original)))
    rows[row][column] = change(rows[row][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    try:
        yield
    finally:
        path.write_text(original)


def nudge(rel):
    return lambda text: repr(float(text) * (1 + rel) + rel)


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_algebra_check(tmp_path):
    doc = inputs.algebra_inputs(7, n_modes=3, nmax=3)["algebra"]
    out = run_cli("verify-algebra", doc, tmp_path)
    checks.check_algebra(doc, out)
    cross = next(i for i, r in enumerate(checks.read_csv(out / "algebra.csv")) if r["k"] != r["l"])
    with perturbed(out / "algebra.csv", cross, "deviation", lambda _: "1e-300"):
        rejects(checks.check_algebra, doc, out)


def test_vacuum_check(tmp_path):
    doc = inputs.algebra_inputs(7, n_modes=3, vac_nmax=6, n_coherent=3, n_vacuum=2)["vacuum"]
    out = run_cli("vacuum-energy", doc, tmp_path)
    checks.check_vacuum(doc, out)
    flip = {"true": "false", "false": "true"}
    for column in ("energy", "pz", "is_vacuum"):
        with perturbed(out / "vacuum.csv", 1, column,
                       flip.get if column == "is_vacuum" else nudge(1e-9)):
            rejects(checks.check_vacuum, doc, out)


def test_field_sweep_check(tmp_path):
    doc = inputs.box_inputs(7, nmax=2, n_times=1, n_points=2)["sweep"]
    out = run_cli("field-sweep", doc, tmp_path)
    checks.check_field_sweep(doc, out)
    for column in ("Ax", "Ey", "Bz"):
        with perturbed(out / "field_sweep.csv", 1, column, nudge(1e-9)):
            rejects(checks.check_field_sweep, doc, out)


def test_emission_check(tmp_path):
    doc = inputs.emission_inputs(7, n_modes=3, n_times=1, n_initial=3)["emission"]
    out = run_cli("emission", doc, tmp_path)
    checks.check_emission(doc, out)
    k, n = doc["emission_initial"][0]["mode"], doc["emission_initial"][0]["n"]
    with perturbed(out / "emission.csv", k * doc["nmax"] + n, "amp_im", nudge(1e-9)):
        rejects(checks.check_emission, doc, out)


@pytest.mark.parametrize("config,field", [
    ("compare", "dimension"), ("compare", "cross"), ("compare", "amplitude"),
    ("jc", "dimension"), ("jc", "amplitude"), ("jc", "jc")])
def test_compare_check(tmp_path, config, field):
    doc = inputs.emission_inputs(7)[config]
    out = run_cli("compare-standard", doc, tmp_path)
    checks.check_compare(doc, out)
    report = json.loads((out / "comparison.json").read_text())
    if field == "dimension":
        report["dimensions"]["standard"] += 1
    elif field == "cross":
        report["algebra"]["cross_mode_double_creation_single_oscillator"] = 1e-300
    elif field == "amplitude":
        report["emission"][0]["standard_amplitude"][1] *= 1 + 1e-9
    else:
        report["jaynes_cummings_check"]["ok"] = False
    (out / "comparison.json").write_text(json.dumps(report))
    rejects(checks.check_compare, doc, out)


def test_energy_identity_check(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(inputs.box_inputs(7, nmax=2, n_samples=2)["identity"]))
    cfg, _ = cli.load_config(path)
    report = fields.energy_identity(hilbert.build_layout(cfg.modes, cfg.nmax), cfg.field,
                                    list(zip(cfg.times, cfg.points)))
    checks.check_energy_identity(report, 2)
    rejects(checks.check_energy_identity, report, 3)
    rejects(checks.check_energy_identity,
            dataclasses.replace(report, energy_dev=report.tol_energy), 2)
    rejects(checks.check_energy_identity,
            dataclasses.replace(report, momentum_dev_literal=1.0,
                                momentum_dev_symmetrized=1.0), 2)


def test_config_error_exit():
    assert checks.config_error_exit(2, None, "config error: bad nmax\n")
    assert not checks.config_error_exit(0, None, "")
    assert not checks.config_error_exit(1, None, "config error: bad nmax\n")
    assert not checks.config_error_exit(None, TypeError("boom"), "")
    assert not checks.config_error_exit(2, None, "usage: monofield\n")
