"""Config fuzzing: replace one leaf or one section of a valid config with a
value from a fixed pool and run the command in-process.  Whatever the
value, the command must keep the exit contract (0 pass, 1 physics check
failed, 2 config error) and raise nothing."""

import contextlib
import io
import json
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


@pytest.mark.parametrize("name", COMMANDS)
@settings(derandomize=True, database=None, max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_keeps_exit_contract(tmp_path, name, data):
    base = json.loads((DATA / name).read_text())
    config = tmp_path / "mutated.json"
    # every example replaces each leaf and section in turn, one per run
    for path in _paths(base):
        where = ".".join(map(str, path))
        value = data.draw(st.sampled_from(POOL), label=where)
        doc = json.loads(json.dumps(base))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        config.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([COMMANDS[name], "--config", str(config), "--out", str(tmp_path)])
        except Exception as exc:
            raise AssertionError(f"{where} = {value!r} raised {exc!r}") from exc
        assert rc in (0, 1, 2), f"{where} = {value!r} exited {rc!r}"
        if rc == 2:
            assert any(line.startswith("config error:")
                       for line in err.getvalue().splitlines()), f"{where} = {value!r}"
