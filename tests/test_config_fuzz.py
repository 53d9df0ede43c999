"""Config fuzzing: replace one leaf or one section of a valid config with a
value from a fixed pool, two numeric leaves of one section with the same
extreme value, or one numeric leaf with a value at the edge of the float
range, and run the command in-process.  Whatever the values, the
command must keep the exit contract (0 pass, 1 physics check failed, 2
config error), raise nothing and warn nothing, and every file it writes on
exit 0 or 1 must hold finite numbers only: strict JSON, and CSV cells that
read as finite floats where they read as floats at all."""

import contextlib
import csv
import io
import itertools
import json
import math
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monofield.cli import main

DATA = Path(__file__).parent / "data"

COMMANDS = {
    "config_algebra.json": "verify-algebra",
    "config_vac.json": "vacuum-energy",
    "config_field.json": "field-sweep",
    "config_emission.json": "emission",
    "config_compare.json": "compare-standard",
    "config_jc.json": "compare-standard",
}
POOL = [True, "1", None, [], {}, 0, -1, 2.5, 1e300, 1e-300]
# the field constants' defaults, written out so that they are paired too
DEFAULT_FIELD = {"hbar": 1.0, "c": 1.0, "volume": 1.0}


def _paths(node, prefix=()):
    """The path of every leaf and every section below the root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_outputs(outdir: Path, where: str) -> None:
    for path in sorted(outdir.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_refuse_constant)
            continue
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), f"{where}: {path.name} holds {cell!r}"


def _run(name: str, doc: dict, tmp_path: Path, where: str) -> None:
    """Run the config's command on ``doc`` in a fresh output directory and
    check the exit contract, that nothing warned and, on exit 0 or 1, the
    files written."""
    config = tmp_path / "mutated.json"
    config.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([COMMANDS[name], "--config", str(config), "--out", str(outdir)])
    except Exception as exc:
        raise AssertionError(f"{where} raised {exc!r}") from exc
    assert not caught, f"{where} warned: {[str(w.message) for w in caught]}"
    assert rc in (0, 1, 2), f"{where} exited {rc!r}"
    if rc == 2:
        assert any(line.startswith("config error:")
                   for line in err.getvalue().splitlines()), where
    else:
        _check_outputs(outdir, where)


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    _leaf(doc, path[:-1])[path[-1]] = value


@pytest.mark.parametrize("name", COMMANDS)
@settings(derandomize=True, database=None, max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_keeps_exit_contract(tmp_path, name, data):
    base = json.loads((DATA / name).read_text())
    # every example replaces each leaf and section in turn, one per run
    for path in _paths(base):
        where = ".".join(map(str, path))
        value = data.draw(st.sampled_from(POOL), label=where)
        doc = json.loads(json.dumps(base))
        _replaced(doc, path, value)
        _run(name, doc, tmp_path, f"{where} = {value!r}")


@pytest.mark.parametrize("name", COMMANDS)
@pytest.mark.parametrize("value", [1e300, 1e-300])
def test_extreme_pairs_keep_outputs_finite(tmp_path, name, value):
    # each leaf alone is in range; two of one section together, such as
    # atom.omega0 and atom.dipole or field.hbar and field.c, may not be
    base = json.loads((DATA / name).read_text())
    assert "box" not in base  # a box would clash with field.volume
    base.setdefault("field", dict(DEFAULT_FIELD))
    for section in base:
        leaves = [path for path in _paths(base[section], (section,))
                  if type(_leaf(base, path)) in (int, float)]
        for pair in itertools.combinations(leaves, 2):
            doc = json.loads(json.dumps(base))
            for path in pair:
                _replaced(doc, path, value)
            _run(name, doc, tmp_path,
                 " and ".join(".".join(map(str, path)) for path in pair) + f" = {value!r}")


@pytest.mark.parametrize("name", [name for name, command in COMMANDS.items()
                                  if command != "emission"])
@pytest.mark.parametrize("value", [1e308, -1e308, 1e-320, 5e-324])
def test_extreme_leaf_alone_keeps_outputs_finite(tmp_path, name, value):
    # the edge of the float range and subnormals, which POOL does not hold,
    # in each numeric leaf alone (nmax and standard_nmax are refused as
    # floats); emission stays out, as each of its runs pays for the Dyson
    # quadrature
    base = json.loads((DATA / name).read_text())
    for path in _paths(base):
        if path[-1] in ("nmax", "standard_nmax") or type(_leaf(base, path)) not in (int, float):
            continue
        doc = json.loads(json.dumps(base))
        _replaced(doc, path, value)
        _run(name, doc, tmp_path, ".".join(map(str, path)) + f" = {value!r}")
