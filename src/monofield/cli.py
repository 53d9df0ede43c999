"""Batch front-end: config-driven algebra checks, vacuum-energy tables,
field sweeps, emission studies, and scheme comparison.

Exit codes: 0 = all checks passed, 1 = a physics check failed,
2 = usage or config error.  Given a fixed config (and seed), every
output file is byte-identical across runs: rows are emitted in a fixed
order and floats are formatted with the shortest round-trip
representation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import (
    DEFAULT_ALGEBRA_TOL,
    _require_field_modes,
    algebra_reports_csv,
    hamiltonian,
    momentum,
    verify_algebra,
)
from .dynamics import dyson_first_order, resonance_kernel, spectrum
from .emission import (
    EXCITED,
    AtomParams,
    _convergence_sweep,
    _first_order_state,
    _first_order_table,
    _interaction_picture,
    _mode_couplings,
    atom_field_hamiltonian,
    coupling,
    VACUUM_TOL,
)
from . import fields
from .fields import (CoherentBatch, StateError, coherent_rows, coherent_state, field_averages,
                     read_states)
from .hilbert import (
    FieldConfig,
    HilbertLayout,
    ModeLabel,
    basis_state,
    build_layout,
    expect_rows,
    load_mode_set,
    mode,
    parse_complex,
    parse_complex_list,
    read_int,
    read_json,
    read_real,
    superposition,
)
from .standard import (
    MAX_NMAX,
    compare_report,
    jc_excited_population,
    jc_rabi_half_frequency,
    single_oscillator_run,
    standard_scheme_run,
    standard_vacuum_energy,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

DEFAULT_TOLERANCES = {"algebra": DEFAULT_ALGEBRA_TOL, "emission": 1e-10, "comparison": 1e-10}
SLOPE_BAND = (1.9, 2.1)


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    modes: tuple[ModeLabel, ...]
    nmax: int
    field: FieldConfig
    atom: AtomParams | None
    coherent: CoherentBatch | None  # one row
    # the vacuum-energy states: one label and one batch row each
    state_labels: tuple[str, ...]
    states: CoherentBatch
    times: tuple[float, ...]
    points: tuple[tuple[float, float, float], ...]
    couplings: tuple[float, ...]
    tolerances: dict[str, float]
    standard_nmax: int
    # (mode, n, atom level) -> amplitude of the emission command's initial state
    emission_initial: dict[tuple[int, int, int], complex]

    def tolerance(self, name: str, override: float | None = None) -> float:
        if override is not None:
            return override
        return self.tolerances[name]


def _require_keys(obj: dict, allowed: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _box_modes(box: dict, c: float) -> tuple[tuple[ModeLabel, ...], float]:
    """The modes of a cubic box and its volume edge^3."""
    _require_keys(box, {"edge", "max_index"}, "box")
    edge = read_real(box.get("edge"), "box.edge")
    max_index = read_int(box.get("max_index"), "box.max_index")
    if edge <= 0 or max_index < 1:
        raise ConfigError("box edge must be > 0 and max_index >= 1")
    count = 2 * ((2 * max_index + 1) ** 3 - 1)
    if 16 * count * 2 * 2 > sys.maxsize:  # the smallest blocks: nmax 1, no atom
        raise ConfigError(f"box.max_index = {max_index} gives {count} modes: the layout's mode "
                          f"blocks would take more than sys.maxsize = {sys.maxsize} bytes")
    unit = 2.0 * math.pi / edge
    modes = []
    for nx in range(-max_index, max_index + 1):
        for ny in range(-max_index, max_index + 1):
            for nz in range(-max_index, max_index + 1):
                if (nx, ny, nz) == (0, 0, 0):
                    continue
                for s in (+1, -1):
                    modes.append(mode(s, (unit * nx, unit * ny, unit * nz), c=c))
    return tuple(modes), edge ** 3


def _quotient(a: float, b: float) -> float:
    """a / b, or inf when b is 0 or inf: a quotient out of the float range."""
    return a / b if 0.0 < b < math.inf else math.inf


def _check_field_scales(modes: tuple[ModeLabel, ...], field: FieldConfig, nmax: int,
                        with_atom: bool, entries: str) -> None:
    """Refuse field constants that put a scale the commands compute with out
    of the float range, before any command computes with it.

    The scales are the energy and momentum quanta omega and |kappa_i| times
    nmax+1, with and without hbar (the operators form either product
    first); the squared amplitudes hbar/(2*omega*V) of A and
    hbar*omega/(2*V) of E and B times nmax+1, whose divisors must be
    neither 0 nor inf; and with the atom the squared mode coupling
    1/(2*hbar*omega*V).  Each is monotonic in omega, so the lowest and
    highest frequencies stand for every mode.  Python floats overflow to
    inf without a warning, so the check itself warns nothing.
    """
    hbar, volume, top = field.hbar, field.volume, nmax + 1
    omega = max(m.omega for m in modes)
    kappa = max(abs(v) for m in modes for v in m.kappa)
    scales = {"energy scale hbar*omega*(nmax+1)": [omega * top, hbar * omega * top],
              "momentum scale hbar*|kappa_i|*(nmax+1)": [kappa * top, hbar * kappa * top]}
    waves = [m.omega for m in modes if not m.abstract]
    if waves:
        extremes = (min(waves), max(waves))
        scales["vector-potential scale hbar/(2*omega*V)*(nmax+1)"] = \
            [_quotient(hbar, 2.0 * w * volume) * top for w in extremes]
        scales["field scale hbar*omega/(2*V)*(nmax+1)"] = \
            [_quotient(hbar * w, 2.0 * volume) * top for w in extremes]
        if with_atom:
            scales["mode coupling 1/(2*hbar*omega*V)"] = \
                [_quotient(1.0, 2.0 * hbar * w * volume) for w in extremes]
    for name, values in scales.items():
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{entries}: the {name} is out of the float range")


TOP_LEVEL_KEYS = {
    "modes", "box", "nmax", "field", "atom", "coherent", "states", "times",
    "time_grid", "points", "couplings", "tolerances", "emission_initial",
    "standard_nmax",
}


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a list, got {value!r}")
    return value


def load_config(path) -> tuple[RunConfig, dict]:
    """Parse and check a JSON run config; returns (config, raw document).

    Every parsing error becomes a :class:`ConfigError` here, in one place,
    so every value a command reads from the config has been checked.
    """
    try:
        doc = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    try:
        return _parse_config(doc), doc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc))
    except MemoryError:
        pass  # refused below, once what the parse held is freed
    raise ConfigError("parsing the config ran out of memory")


def _parse_config(doc) -> RunConfig:
    _require_keys(doc, TOP_LEVEL_KEYS, "config")

    field_doc = doc.get("field", {})
    _require_keys(field_doc, {"hbar", "c", "volume"}, "field")
    if "box" in doc and "volume" in field_doc:
        raise ConfigError("give either box (volume = edge^3) or field.volume, not both")
    hbar, c, volume = (read_real(field_doc.get(key, 1.0), f"field.{key}")
                       for key in ("hbar", "c", "volume"))

    if ("modes" in doc) == ("box" in doc):
        raise ConfigError("config needs exactly one of 'modes' or 'box'")
    if "box" in doc:
        modes, volume = _box_modes(doc["box"], c)
    else:
        modes = load_mode_set(_list(doc, "modes"), FieldConfig(hbar, c, volume))
    field = FieldConfig(hbar=hbar, c=c, volume=volume)
    nmax = build_layout(modes, read_int(doc.get("nmax"), "nmax")).nmax
    _check_field_scales(modes, field, nmax, "atom" in doc,
                        f"field.hbar = {hbar!r}, field.c = {c!r} and "
                        f"{'the box volume' if 'box' in doc else 'field.volume'} = {volume!r}")
    size = (2 if "atom" in doc else 1) * (nmax + 1)
    if 16 * len(modes) * size * size > sys.maxsize:  # Python ints: no overflow
        raise ConfigError(f"nmax = {nmax} with {len(modes)} modes: the layout's mode blocks "
                          f"would take more than sys.maxsize = {sys.maxsize} bytes")

    atom = None
    if "atom" in doc:
        atom_doc = doc["atom"]
        _require_keys(atom_doc, {"omega0", "dipole", "direction"}, "atom")
        direction = parse_complex_list(_list(atom_doc, "direction"), "atom.direction")
        atom = AtomParams.make(read_real(atom_doc.get("omega0"), "atom.omega0"),
                               read_real(atom_doc.get("dipole"), "atom.dipole"), direction)
        if not math.isfinite(hbar * atom.omega0 * atom.d):
            raise ConfigError(f"atom.omega0 = {atom.omega0!r} and atom.dipole = {atom.d!r} "
                              f"with field.hbar = {hbar!r}: the coupling scale "
                              "hbar*omega0*dipole overflows")

    coherent = read_states(modes, [doc["coherent"]], "coherent", labelled=False)[0] \
        if "coherent" in doc else None
    states, state_labels = read_states(modes, _list(doc, "states"))

    if "times" in doc and "time_grid" in doc:
        raise ConfigError("give either 'times' or 'time_grid', not both")
    if "time_grid" in doc:
        grid = doc["time_grid"]
        _require_keys(grid, {"start", "stop", "num"}, "time_grid")
        num = read_int(grid.get("num"), "time_grid.num")
        start = read_real(grid.get("start"), "time_grid.start")
        stop = read_real(grid.get("stop"), "time_grid.stop")
        if not math.isfinite(stop - start):  # Python floats: no warning
            raise ConfigError(f"time_grid.start = {start!r} and time_grid.stop = {stop!r}: "
                              "stop - start is out of the float range")
        if 8 * num > sys.maxsize:
            raise ConfigError(f"time_grid.num = {num}: the grid's times would take more "
                              f"than sys.maxsize = {sys.maxsize} bytes")
        try:
            times = np.linspace(start, stop, num).tolist() if num > 0 else []
        except MemoryError:
            raise ConfigError(f"time_grid.num = {num}: the grid's times do not fit "
                              "in memory") from None
    else:
        times = _list(doc, "times")
    times = tuple(read_real(t, f"times[{i}]") for i, t in enumerate(times))

    points = []
    for i, p in enumerate(_list(doc, "points")):
        if not (isinstance(p, list) and len(p) == 3):
            raise ConfigError(f"points[{i}] must be [x, y, z]")
        points.append(tuple(read_real(v, f"points[{i}]") for v in p))

    couplings = tuple(read_real(v, f"couplings[{i}]")
                      for i, v in enumerate(_list(doc, "couplings")))
    if any(v <= 0 for v in couplings):
        raise ConfigError("couplings must be positive")
    if couplings and len(set(couplings)) < 2:
        raise ConfigError("couplings need at least two distinct values to fit a slope")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in doc:
        _require_keys(doc["tolerances"], set(DEFAULT_TOLERANCES), "tolerances")
        for key, value in doc["tolerances"].items():
            tolerances[key] = read_real(value, f"tolerances.{key}")
            if tolerances[key] <= 0:
                raise ConfigError(f"tolerances.{key} must be > 0, got {value!r}")

    standard_nmax = read_int(doc.get("standard_nmax", min(nmax, MAX_NMAX)), "standard_nmax")
    if not 1 <= standard_nmax <= MAX_NMAX:
        raise ConfigError(f"standard_nmax must be an integer in [1, {MAX_NMAX}]")

    if doc.get("emission_initial") is None:
        initial = {(k, 0, EXCITED): 1.0 for k in range(len(modes))}
    else:
        initial = {}
        for i, entry in enumerate(_list(doc, "emission_initial")):
            where = f"emission_initial[{i}]"
            _require_keys(entry, {"mode", "n", "amp"}, where)
            k = read_int(entry.get("mode"), f"{where}.mode")
            n = read_int(entry.get("n", 0), f"{where}.n")
            if not (0 <= k < len(modes) and 0 <= n <= nmax):
                raise ConfigError(f"{where}: needs 0 <= mode < {len(modes)} and "
                                  f"0 <= n <= {nmax}, got mode {k}, n {n}")
            amp = parse_complex(entry.get("amp", 1.0), f"{where}.amp")
            initial[k, n, EXCITED] = total = initial.get((k, n, EXCITED), 0j) + amp
            if not np.isfinite(total):  # only a sum of repeated entries can overflow
                raise ConfigError(f"{where}: the amplitudes of mode {k}, n {n} sum to {total!r}")
    if not any(amp for (_, n, _), amp in initial.items() if n < nmax):
        raise ConfigError(f"emission_initial has no nonzero amplitude below n = nmax = {nmax}, "
                          "so nothing can be emitted within the truncation")

    return RunConfig(modes=modes, nmax=nmax, field=field, atom=atom,
                     coherent=coherent, state_labels=state_labels, states=states, times=times,
                     points=tuple(points), couplings=couplings,
                     tolerances=tolerances, standard_nmax=standard_nmax,
                     emission_initial=initial)


# -- output helpers -------------------------------------------------------


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write a table from its columns, each one sequence of one kind: floats
    as ``repr`` over ``.tolist()``, bools as true/false, ints by ``str``,
    strings as they are (csv-quoted where needed).  A non-finite float is a
    config error naming the file and the column of the first such cell in
    row-major order, found by one ``np.isfinite`` per float column before
    the file is opened."""
    columns = [np.asarray(column) for column in columns]
    bad = [(int(np.argmin(finite)), j) for j, column in enumerate(columns)
           if column.dtype.kind == "f" and not (finite := np.isfinite(column)).all()]
    if bad:
        raise ConfigError(f"{path}: column {header[min(bad)[1]]!r} would hold "
                          "a non-finite number")
    cells = [map(repr, column.tolist()) if column.dtype.kind == "f"
             else np.where(column, "true", "false").tolist() if column.dtype.kind == "b"
             else map(str, column.tolist()) for column in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))


def _json_default(value):
    """A complex number as [re, im], a numpy integer as an int."""
    return [value.real, value.imag] if isinstance(value, complex) else operator.index(value)


def _write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as strict JSON; a non-finite float is a config error naming the file."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
    except ValueError:
        raise ConfigError(f"{path}: the report would hold a non-finite number") from None
    path.write_text(text + "\n", encoding="utf-8")


# -- commands -------------------------------------------------------------


def _propagating(layout: HilbertLayout, command: str) -> None:
    try:
        _require_field_modes(layout, command)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_verify_algebra(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    layout = build_layout(cfg.modes, cfg.nmax)
    tolerance = cfg.tolerance("algebra", tol)
    table = verify_algebra(layout, tol=tolerance)
    algebra_reports_csv(table, outdir / "algebra.csv")
    print(f"verify-algebra: {len(table)} relations, {table.failed} failed "
          f"(tolerance {tolerance!r})")
    return 1 if table.failed else 0


def cmd_vacuum_energy(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    if not cfg.states:
        raise ConfigError("vacuum-energy needs a 'states' list")
    layout = build_layout(cfg.modes, cfg.nmax)
    h = hamiltonian(layout, cfg.field)
    propagating = all(not m.abstract for m in cfg.modes)
    p_ops = momentum(layout, cfg.field) if propagating else None
    contrast = standard_vacuum_energy(cfg.modes, cfg.field)
    labels = cfg.state_labels
    vacuum, energies, momenta = [], [], []
    size = max(1, fields.STATE_BLOCK_BYTES // (16 * layout.dimension))
    for start in range(0, len(labels), size):
        block = cfg.states.rows(start, start + size)
        try:
            psi = coherent_rows(layout, block)
        except StateError as exc:
            raise ConfigError(f"state {labels[start + exc.index]!r}: {exc}")
        # zero-photon: every n > 0 amplitude below the vacuum_subspace_check tolerance
        vacuum.append(np.abs(layout.view(psi)[..., 1:]).max(axis=(-3, -2, -1)) < VACUUM_TOL)
        energies.append(expect_rows(h, psi).real)
        if p_ops is not None:
            momenta.append([expect_rows(op, psi).real for op in p_ops])
    p = np.concatenate(momenta, axis=1) if p_ops is not None else [[""] * len(labels)] * 3
    _write_csv(outdir / "vacuum.csv",
               ["label", "is_vacuum", "energy", "px", "py", "pz", "standard_vacuum_energy"],
               [labels, np.concatenate(vacuum), np.concatenate(energies), *p,
                [contrast] * len(labels)])
    print(f"vacuum-energy: {len(labels)} states "
          f"(standard-scheme contrast {contrast!r})")
    return 0


def _phase_refusal(cfg: RunConfig, layout: HilbertLayout, index: int) -> ConfigError:
    """The refusal of field-sweep grid point ``index``, where the phase
    omega*t - kappa.x of some mode is out of the float range.  The message
    names the time or the point whose own phase overflows, else both."""
    i, j = divmod(index, len(cfg.points))
    with np.errstate(over="ignore", invalid="ignore"):
        entries = {f"times[{i}] = {cfg.times[i]!r}": cfg.times[i] * layout.omegas,
                   f"points[{j}] = {list(cfg.points[j])!r}":
                       np.vecdot(layout.kappas, np.array(cfg.points[j]))}
    named = [entry for entry, phase in entries.items() if not np.isfinite(phase).all()]
    return ConfigError(f"{' and '.join(named or entries)}: the phase omega*t - kappa.x of a "
                       "mode is out of the float range")


def cmd_field_sweep(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    if cfg.coherent is None:
        raise ConfigError("field-sweep needs a 'coherent' section")
    layout = build_layout(cfg.modes, cfg.nmax)
    _propagating(layout, "field-sweep")
    try:
        state = coherent_state(layout, cfg.coherent)
    except ValueError as exc:
        raise ConfigError(str(exc))
    t = np.repeat(cfg.times, len(cfg.points))
    x = np.tile(np.reshape(cfg.points, (-1, 3)), (len(cfg.times), 1))
    try:
        averages = field_averages(state, cfg.field, t, x)
    except StateError as exc:
        raise _phase_refusal(cfg, layout, exc.index) from None
    _write_csv(outdir / "field_sweep.csv",
               ["t", "x", "y", "z", "Ax", "Ay", "Az", "Ex", "Ey", "Ez",
                "Bx", "By", "Bz"], [t, *x.T, *averages.reshape(-1, 9).T])
    print(f"field-sweep: {len(t)} grid points")
    return 0


def cmd_emission(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    if cfg.atom is None:
        raise ConfigError("emission needs an 'atom' section")
    tolerance = cfg.tolerance("emission", tol)
    layout = build_layout(cfg.modes, cfg.nmax, with_atom=True)
    _propagating(layout, "emission")
    populated = sorted({k for (k, n, _), amp in cfg.emission_initial.items()
                        if amp and n < cfg.nmax})
    gs = _mode_couplings(layout.modes, cfg.atom, cfg.field)  # one row for the whole run
    if not gs[populated].any():
        raise ConfigError(f"atom.direction is orthogonal to the polarization of every mode "
                          f"emission_initial populates below n = nmax = {cfg.nmax} (modes "
                          f"{populated}), so nothing can be emitted")
    initial = superposition(layout, cfg.emission_initial)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with the time
        table = _first_order_table(initial, cfg.atom, cfg.times, [cfg.atom.d], gs)[0]
    probs = []
    for i, (t, amps) in enumerate(zip(cfg.times, table.tolist())):
        try:
            probs += [abs(amp) ** 2 for row in amps for amp in row]
        except OverflowError:
            raise ConfigError(f"times[{i}] = {t!r}: the emission probability overflows")
    times, modes, sources = table.shape  # rows in (time, mode, n) order
    k = np.tile(np.repeat(np.arange(modes), sources), times)
    n = np.tile(np.arange(sources), times * modes)
    _write_csv(outdir / "emission.csv",
               ["t", "s", "kx", "ky", "kz", "omega", "n_initial",
                "amp_re", "amp_im", "channel", "prob"],
               [np.repeat(cfg.times, modes * sources), np.array([m.s for m in layout.modes])[k],
                *layout.kappas[k].T, layout.omegas[k], n, table.real.ravel(), table.imag.ravel(),
                np.where(n == 0, "spontaneous", "stimulated"), probs])

    t_ref = cfg.times[-1] if cfg.times else 1.0
    couplings = cfg.couplings or tuple(np.logspace(-3.0, -1.0, 7).tolist())
    try:
        deviations = _convergence_sweep(initial, cfg.atom, cfg.field, t_ref, couplings,
                                        gs).tolist()
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not all(0.0 < dev < math.inf for dev in deviations):
        raise ConfigError(f"t = {t_ref!r}: no convergence slope fits deviations {deviations!r}")
    slope = float(np.polyfit(np.log(np.asarray(couplings)),
                             np.log(np.asarray(deviations)), 1)[0])
    _write_csv(outdir / "emission_convergence.csv", ["coupling", "deviation"],
               [couplings, deviations])

    psi_closed = _first_order_state(initial, cfg.atom, t_ref, gs)
    try:
        psi_quad = dyson_first_order(_interaction_picture(layout, cfg.atom, cfg.field, gs),
                                     initial, t_ref, hbar=cfg.field.hbar)
    except ValueError as exc:
        raise ConfigError(f"t = {t_ref!r}: first-order Dyson integral: {exc}")
    quad_dev = float(np.linalg.norm(psi_closed.amplitudes - psi_quad.amplitudes))
    kernel_dev = abs(resonance_kernel(0.0, 1.0) - (-1j))

    slope_ok = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
    quad_ok = quad_dev < tolerance
    kernel_ok = kernel_dev < 1e-12
    report = {
        "time": t_ref,
        "couplings": list(couplings),
        "deviations": deviations,
        "slope": slope,
        "slope_band": list(SLOPE_BAND),
        "slope_ok": slope_ok,
        "closed_vs_quadrature": quad_dev,
        "closed_vs_quadrature_ok": quad_ok,
        "resonance_kernel_deviation": kernel_dev,
        "resonance_kernel_ok": kernel_ok,
        "pass": slope_ok and quad_ok and kernel_ok,
    }
    _write_json(outdir / "emission_report.json", report)
    print(f"emission: slope {slope!r}, closed-vs-quadrature {quad_dev!r}")
    return 0 if report["pass"] else 1


def cmd_compare_standard(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    tolerance = cfg.tolerance("comparison", tol)
    t_ref = cfg.times[-1] if cfg.times else 1.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, with the time
            single = single_oscillator_run(cfg.modes, cfg.nmax, cfg.field, cfg.atom,
                                           t=t_ref, seed=seed)
            standard = standard_scheme_run(cfg.modes, cfg.standard_nmax, cfg.field,
                                           cfg.atom, t=t_ref)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not all(np.isfinite(run["emission"]).all() for run in (single, standard)
               if "emission" in run):
        raise ConfigError(f"t = {t_ref!r}: the first-order emission amplitudes are out of "
                          "the float range")
    report = compare_report(single, standard)

    g = coupling(cfg.modes[0], cfg.atom, cfg.field) \
        if cfg.atom is not None and len(cfg.modes) == 1 else 0.0
    lam = jc_rabi_half_frequency(cfg.atom, g) if g else 0.0
    if lam > 0.0:  # the Jaynes-Cummings check needs a mode that couples to the atom
        detuning = cfg.atom.omega0 - cfg.modes[0].omega
        layout = build_layout(cfg.modes, cfg.nmax, with_atom=True)
        h = atom_field_hamiltonian(layout, cfg.atom, cfg.field)
        psi0 = basis_state(layout, 0, 0, EXCITED)
        refusal = (f"Jaynes-Cummings check: atom.omega0 = {cfg.atom.omega0!r} and "
                   f"atom.dipole = {cfg.atom.d!r} give half-Rabi frequency {lam!r}: ")
        horizon = 10.0 / lam
        if not math.isfinite(horizon):
            raise ConfigError(refusal + f"the horizon 10/lambda = {horizon!r} is out of the "
                              "float range")
        times = np.linspace(0.0, horizon, 101)
        dev = 0.0
        try:
            amplitudes = spectrum(h, cfg.field.hbar).trajectory(psi0, times)
            populations = np.sum(np.abs(layout.view(amplitudes)[:, EXCITED]) ** 2, axis=(1, 2))
            for t, pop in zip(times.tolist(), populations.tolist()):
                ref = jc_excited_population(cfg.atom, g, 0, t, detuning)
                dev = max(dev, abs(pop - ref))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(refusal + str(exc))
        report["jaynes_cummings_check"] = {
            "half_rabi_frequency": lam,
            "horizon": horizon,
            "max_population_deviation": dev,
            "tolerance": tolerance,
            "ok": dev < tolerance,
        }

    _write_json(outdir / "comparison.json", report)
    if "emission" in report:
        amplitudes, weights = single["emission"], single["emission_weights"]
        _write_csv(outdir / "comparison_emission.csv",
                   ["mode_index", "omega", "single_re", "single_im",
                    "standard_re", "standard_im", "weight_re", "weight_im"],
                   [np.arange(len(weights)), single["omegas"], amplitudes.real, amplitudes.imag,
                    standard["emission"].real, standard["emission"].imag,
                    weights.real, weights.imag])
    print(f"compare-standard: dimensions {report['dimensions']['single_oscillator']} "
          f"vs {report['dimensions']['standard']}")
    check = report.get("jaynes_cummings_check")
    return 1 if check and not check["ok"] else 0


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "vacuum-energy": cmd_vacuum_energy,
    "field-sweep": cmd_field_sweep,
    "emission": cmd_emission,
    "compare-standard": cmd_compare_standard,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args``
    fills a fresh namespace on every call, so nothing carries over."""
    parser = argparse.ArgumentParser(
        prog="monofield",
        description="Single-oscillator mode quantization: checks and reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("verify-algebra", "check the mode-operator relations, write algebra.csv"),
        ("vacuum-energy", "energy/momentum expectations per state, write vacuum.csv"),
        ("field-sweep", "field averages over a (t, x) grid, write field_sweep.csv"),
        ("emission", "first-order amplitudes and convergence study"),
        ("compare-standard", "side-by-side report against the tensor-product scheme"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the command's pass/fail tolerance")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized sampling in reports")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.tolerance is not None and not 0.0 < args.tolerance < math.inf:
            raise ConfigError(f"--tolerance must be a finite number > 0, got {args.tolerance!r}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed!r}")
        cfg, _ = load_config(args.config)
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {str(outdir)!r} is not a usable output directory: "
                              f"{exc.strerror or exc}") from None
        try:
            return COMMANDS[args.command](cfg, outdir, args.tolerance, args.seed)
        except MemoryError:
            raise ConfigError(f"nmax = {cfg.nmax} with {len(cfg.modes)} modes: the run does "
                              "not fit in memory") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
