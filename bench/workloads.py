"""The benchmark workloads: generated configs, the operations of one pass,
and the check that goes with each operation.

Every operation goes through the program's public entry points
(``monofield.cli.main`` and library functions), always looked up as module
attributes at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from monofield import cli, fields, hilbert

import checks
import inputs

# compare-standard is cheap (milliseconds a call); repeating the oracle set
# makes per-call overhead a measurable share of the pass.
ORACLE_REPEATS = 25


@dataclass
class Op:
    """One operation of a pass.  ``run`` returns True when the program did
    what it promises; ``check`` then verifies its output independently."""

    name: str
    stage: str  # "primary", "secondary" or "malformed"
    run: Callable[[], bool]
    check: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    primary: str    # name of the primary_s metric on this workload
    secondary: str  # name of the secondary_s metric on this workload
    configs: list[Path]  # the valid configs, parsed by the set-up probe
    ops: list[Op]


def _cli(command: str, config: Path, outdir: Path):
    """Run one CLI command in-process; returns (exit code, exception, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--config", str(config), "--out", str(outdir)])
    except Exception as exc:  # a crash is a failed operation, reported by the caller
        return None, exc, err.getvalue()
    return rc, None, err.getvalue()


def _write(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _command_op(name: str, stage: str, command: str, config: Path, outdir: Path,
                check: Callable[[Path], None]) -> Op:
    outdir.mkdir(parents=True, exist_ok=True)

    def run() -> bool:
        rc, exc, _ = _cli(command, config, outdir)
        if exc is not None:
            raise exc
        return rc == 0

    return Op(name, stage, run, lambda: check(outdir))


def _malformed_ops(workdir: Path) -> list[Op]:
    ops = []
    outdir = workdir / "out-malformed"
    outdir.mkdir(parents=True, exist_ok=True)
    for name, command, doc in inputs.MALFORMED:
        config = _write(workdir, f"malformed-{name}", doc)
        ops.append(Op(f"malformed {name}", "malformed",
                      lambda c=command, p=config: checks.config_error_exit(*_cli(c, p, outdir))))
    return ops


def algebra_32(seed: int, workdir: Path, root: Path) -> Workload:
    docs = inputs.algebra_inputs(seed)
    paths = {k: _write(workdir, k, doc) for k, doc in docs.items()}
    ops = [
        _command_op("verify-algebra", "primary", "verify-algebra", paths["algebra"],
                    workdir / "out-algebra",
                    lambda out: checks.check_algebra(docs["algebra"], out)),
        _command_op("vacuum-energy", "secondary", "vacuum-energy", paths["vacuum"],
                    workdir / "out-vacuum",
                    lambda out: checks.check_vacuum(docs["vacuum"], out)),
    ]
    return Workload("algebra-32", "verify_algebra_s", "vacuum_energy_s",
                    list(paths.values()), ops)


def box_fields(seed: int, workdir: Path, root: Path) -> Workload:
    docs = inputs.box_inputs(seed)
    paths = {k: _write(workdir, k, doc) for k, doc in docs.items()}
    reports = []

    def identity() -> bool:
        cfg, _ = cli.load_config(paths["identity"])
        layout = hilbert.build_layout(cfg.modes, cfg.nmax)
        reports.append(fields.energy_identity(layout, cfg.field,
                                              list(zip(cfg.times, cfg.points))))
        return True

    ops = [
        _command_op("field-sweep", "primary", "field-sweep", paths["sweep"],
                    workdir / "out-sweep",
                    lambda out: checks.check_field_sweep(docs["sweep"], out)),
        Op("energy-identity", "secondary", identity,
           lambda: checks.check_energy_identity(reports.pop(),
                                                len(docs["identity"]["times"]))),
    ]
    return Workload("box-fields", "field_sweep_s", "energy_identity_s",
                    list(paths.values()), ops)


def emission_oracles(seed: int, workdir: Path, root: Path) -> Workload:
    docs = inputs.emission_inputs(seed)
    paths = {k: _write(workdir, k, doc) for k, doc in docs.items()}
    oracles = [(k, paths[k], docs[k]) for k in ("compare", "jc")]
    for name in ("config_compare", "config_jc"):
        path = root / "tests" / "data" / f"{name}.json"
        oracles.append((name, path, json.loads(path.read_text(encoding="utf-8"))))
    ops = [_command_op("emission", "primary", "emission", paths["emission"],
                       workdir / "out-emission",
                       lambda out: checks.check_emission(docs["emission"], out))]
    for _ in range(ORACLE_REPEATS):
        for name, path, doc in oracles:
            ops.append(_command_op(f"compare-standard {name}", "secondary",
                                   "compare-standard", path, workdir / f"out-{name}",
                                   lambda out, d=doc: checks.check_compare(d, out)))
    ops += _malformed_ops(workdir)
    return Workload("emission-oracles", "emission_s", "compare_standard_s",
                    list(paths.values()) + [p for _, p, _ in oracles[2:]], ops)


WORKLOADS = {
    "algebra-32": algebra_32,
    "box-fields": box_fields,
    "emission-oracles": emission_oracles,
}
