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
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .algebra import (
    _require_field_modes,
    algebra_reports_csv,
    hamiltonian,
    momentum,
    verify_algebra,
)
from .dynamics import dyson_first_order, evolve, resonance_kernel, spectrum
from .emission import (
    EXCITED,
    AtomParams,
    atom_field_hamiltonian,
    coupling,
    first_order_emission,
    first_order_state,
    free_hamiltonian_with_atom,
    interaction_picture,
    vacuum_subspace_check,
)
from .fields import CoherentSpec, coherent_state, field_average, magnetic_field
from .fields import electric_field, vector_potential
from .hilbert import (
    FieldConfig,
    HilbertLayout,
    ModeLabel,
    basis_state,
    build_layout,
    expect,
    load_mode_set,
    mode,
    parse_complex,
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
    build_standard_layout,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

DEFAULT_TOLERANCES = {"algebra": 1e-12, "emission": 1e-10, "comparison": 1e-10}
SLOPE_BAND = (1.9, 2.1)


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    modes: tuple[ModeLabel, ...]
    nmax: int
    field: FieldConfig
    atom: AtomParams | None
    coherent: CoherentSpec | None
    states: tuple[tuple[str, CoherentSpec], ...]
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
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


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
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    try:
        return _parse_config(doc), doc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc))


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

    atom = None
    if "atom" in doc:
        atom_doc = doc["atom"]
        _require_keys(atom_doc, {"omega0", "dipole", "direction"}, "atom")
        direction = [parse_complex(v, f"atom.direction[{i}]")
                     for i, v in enumerate(_list(atom_doc, "direction"))]
        atom = AtomParams.make(read_real(atom_doc.get("omega0"), "atom.omega0"),
                               read_real(atom_doc.get("dipole"), "atom.dipole"), direction)

    def _spec_from(obj: dict, where: str, *extra: str) -> CoherentSpec:
        _require_keys(obj, {"weights", "alphas", *extra}, where)
        try:
            return CoherentSpec.parse(modes, obj)
        except ValueError as exc:
            raise ConfigError(f"bad {where}: {exc}")

    coherent = _spec_from(doc["coherent"], "coherent") if "coherent" in doc else None

    states = []
    for i, entry in enumerate(_list(doc, "states")):
        spec = _spec_from(entry, f"states[{i}]", "label")
        states.append((str(entry.get("label", f"state{i}")), spec))

    if "times" in doc and "time_grid" in doc:
        raise ConfigError("give either 'times' or 'time_grid', not both")
    if "time_grid" in doc:
        grid = doc["time_grid"]
        _require_keys(grid, {"start", "stop", "num"}, "time_grid")
        num = read_int(grid.get("num"), "time_grid.num")
        times = np.linspace(read_real(grid.get("start"), "time_grid.start"),
                            read_real(grid.get("stop"), "time_grid.stop"),
                            num).tolist() if num > 0 else []
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
            initial[k, n, EXCITED] = initial.get((k, n, EXCITED), 0j) + amp
    if not any(amp for (_, n, _), amp in initial.items() if n < nmax):
        raise ConfigError(f"emission_initial has no nonzero amplitude below n = nmax = {nmax}, "
                          "so nothing can be emitted within the truncation")
    with np.errstate(over="ignore"):  # an overflowing norm is refused here
        norm = np.linalg.norm(list(initial.values()))
    if not np.isfinite(norm):
        raise ConfigError("emission_initial: the norm of the amplitudes overflows")

    return RunConfig(modes=modes, nmax=nmax, field=field, atom=atom,
                     coherent=coherent, states=tuple(states), times=times,
                     points=tuple(points), couplings=couplings,
                     tolerances=tolerances, standard_nmax=standard_nmax,
                     emission_initial=initial)


# -- output helpers -------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- commands -------------------------------------------------------------


def _propagating(layout: HilbertLayout, command: str) -> None:
    try:
        _require_field_modes(layout, command)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_verify_algebra(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    layout = build_layout(cfg.modes, cfg.nmax)
    tolerance = cfg.tolerance("algebra", tol)
    reports = verify_algebra(layout, tol=tolerance)
    algebra_reports_csv(reports, outdir / "algebra.csv")
    failed = [r for r in reports if not r.passed]
    print(f"verify-algebra: {len(reports)} relations, {len(failed)} failed "
          f"(tolerance {tolerance!r})")
    return 1 if failed else 0


def cmd_vacuum_energy(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    if not cfg.states:
        raise ConfigError("vacuum-energy needs a 'states' list")
    layout = build_layout(cfg.modes, cfg.nmax)
    h = hamiltonian(layout, cfg.field)
    propagating = all(not m.abstract for m in cfg.modes)
    p_ops = momentum(layout, cfg.field) if propagating else None
    std_layout_ok = layout.n_modes <= 4
    contrast = standard_vacuum_energy(
        build_standard_layout(cfg.modes, cfg.standard_nmax), cfg.field) \
        if std_layout_ok else 0.5 * cfg.field.hbar * float(np.sum(layout.omegas))
    rows = []
    for label, spec in cfg.states:
        try:
            state = coherent_state(layout, spec)
        except ValueError as exc:
            raise ConfigError(f"state {label!r}: {exc}")
        check = vacuum_subspace_check(state, cfg.field)
        energy = expect(h, state).real
        if p_ops is not None:
            p = [expect(op, state).real for op in p_ops]
        else:
            p = ["", "", ""]
        rows.append([label, check.is_vacuum, energy, p[0], p[1], p[2], contrast])
    _write_csv(outdir / "vacuum.csv",
               ["label", "is_vacuum", "energy", "px", "py", "pz",
                "standard_vacuum_energy"], rows)
    print(f"vacuum-energy: {len(rows)} states "
          f"(standard-scheme contrast {contrast!r})")
    return 0


def cmd_field_sweep(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    if cfg.coherent is None:
        raise ConfigError("field-sweep needs a 'coherent' section")
    layout = build_layout(cfg.modes, cfg.nmax)
    _propagating(layout, "field-sweep")
    try:
        state = coherent_state(layout, cfg.coherent)
    except ValueError as exc:
        raise ConfigError(str(exc))
    rows = []
    for t in cfg.times:
        for x in cfg.points:
            a = field_average(vector_potential, state, cfg.field, t, x)
            e = field_average(electric_field, state, cfg.field, t, x)
            b = field_average(magnetic_field, state, cfg.field, t, x)
            rows.append([t, x[0], x[1], x[2], *a.tolist(), *e.tolist(), *b.tolist()])
    _write_csv(outdir / "field_sweep.csv",
               ["t", "x", "y", "z", "Ax", "Ay", "Az", "Ex", "Ey", "Ez",
                "Bx", "By", "Bz"], rows)
    print(f"field-sweep: {len(rows)} grid points")
    return 0


def cmd_emission(cfg: RunConfig, outdir: Path, tol: float | None, seed: int) -> int:
    if cfg.atom is None:
        raise ConfigError("emission needs an 'atom' section")
    tolerance = cfg.tolerance("emission", tol)
    layout = build_layout(cfg.modes, cfg.nmax, with_atom=True)
    _propagating(layout, "emission")
    initial = superposition(layout, cfg.emission_initial)
    rows = []
    for i, t in enumerate(cfg.times):
        for r in first_order_emission(initial, cfg.atom, cfg.field, t).records:
            m = r.mode
            try:
                prob = abs(r.amplitude) ** 2
            except OverflowError:
                raise ConfigError(f"times[{i}] = {t!r}: the emission probability overflows")
            rows.append([t, m.s, m.kappa[0], m.kappa[1], m.kappa[2], m.omega,
                         r.n_initial, r.amplitude.real, r.amplitude.imag,
                         r.channel, prob])
    _write_csv(outdir / "emission.csv",
               ["t", "s", "kx", "ky", "kz", "omega", "n_initial",
                "amp_re", "amp_im", "channel", "prob"], rows)

    t_ref = cfg.times[-1] if cfg.times else 1.0
    couplings = cfg.couplings or tuple(np.logspace(-3.0, -1.0, 7).tolist())
    deviations = []
    for d in couplings:
        atom_d = replace(cfg.atom, d=float(d))
        psi_pert = first_order_state(initial, atom_d, cfg.field, t_ref)
        h_full = atom_field_hamiltonian(layout, atom_d, cfg.field)
        h_free = free_hamiltonian_with_atom(layout, atom_d, cfg.field)
        try:
            psi_s = evolve(h_full, initial, t_ref, cfg.field.hbar)
            psi_i = evolve(h_free, psi_s, -t_ref, cfg.field.hbar)
        except ValueError as exc:
            raise ConfigError(f"coupling {d!r}, t = {t_ref!r}, "
                              f"field.hbar = {cfg.field.hbar!r}: {exc}")
        deviations.append(float(np.linalg.norm(psi_i.amplitudes - psi_pert.amplitudes)))
    if not all(0.0 < dev < math.inf for dev in deviations):
        raise ConfigError(f"t = {t_ref!r}: no convergence slope fits deviations {deviations!r}")
    slope = float(np.polyfit(np.log(np.asarray(couplings)),
                             np.log(np.asarray(deviations)), 1)[0])
    _write_csv(outdir / "emission_convergence.csv", ["coupling", "deviation"],
               [[d, dev] for d, dev in zip(couplings, deviations)])

    psi_closed = first_order_state(initial, cfg.atom, cfg.field, t_ref)
    try:
        psi_quad = dyson_first_order(interaction_picture(layout, cfg.atom, cfg.field),
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
        single = single_oscillator_run(cfg.modes, cfg.nmax, cfg.field, cfg.atom,
                                 t=t_ref, seed=seed)
        standard = standard_scheme_run(cfg.modes, cfg.standard_nmax, cfg.field,
                                       cfg.atom, t=t_ref)
    except ValueError as exc:
        raise ConfigError(str(exc))
    report = compare_report(single, standard)
    ok = True

    g = coupling(cfg.modes[0], cfg.atom, cfg.field) \
        if cfg.atom is not None and len(cfg.modes) == 1 else 0.0
    lam = jc_rabi_half_frequency(cfg.atom, g) if g else 0.0
    if lam > 0.0:  # the Jaynes-Cummings check needs a mode that couples to the atom
        detuning = cfg.atom.omega0 - cfg.modes[0].omega
        layout = build_layout(cfg.modes, cfg.nmax, with_atom=True)
        h = atom_field_hamiltonian(layout, cfg.atom, cfg.field)
        psi0 = basis_state(layout, 0, 0, EXCITED)
        horizon = 10.0 / lam
        dev = 0.0
        try:
            spec = spectrum(h, cfg.field.hbar)
            for t in np.linspace(0.0, horizon, 101):
                psi = spec.evolve(psi0, float(t))
                pop = float(np.sum(np.abs(psi.amplitudes[layout.field_dim:]) ** 2))
                ref = jc_excited_population(cfg.atom, g, 0, float(t), detuning)
                dev = max(dev, abs(pop - ref))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"Jaynes-Cummings check: atom.omega0 = {cfg.atom.omega0!r} and "
                              f"atom.dipole = {cfg.atom.d!r} give half-Rabi frequency "
                              f"{lam!r}: {exc}")
        report["jaynes_cummings_check"] = {
            "half_rabi_frequency": lam,
            "horizon": horizon,
            "max_population_deviation": dev,
            "tolerance": tolerance,
            "ok": dev < tolerance,
        }
        ok = ok and dev < tolerance

    _write_json(outdir / "comparison.json", report)
    if "emission" in report:
        rows = []
        for r in report["emission"]:
            amp_p = r["single_oscillator_amplitude"]
            amp_s = r["standard_amplitude"]
            w = r["weight"] if r["weight"] is not None else 0.0
            rows.append([r["mode_index"], r["omega"], amp_p.real, amp_p.imag,
                         amp_s.real, amp_s.imag, complex(w).real, complex(w).imag])
        _write_csv(outdir / "comparison_emission.csv",
                   ["mode_index", "omega", "single_re", "single_im",
                    "standard_re", "standard_im", "weight_re", "weight_im"], rows)
    print(f"compare-standard: dimensions {report['dimensions']['single_oscillator']} "
          f"vs {report['dimensions']['standard']}")
    return 0 if ok else 1


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "vacuum-energy": cmd_vacuum_energy,
    "field-sweep": cmd_field_sweep,
    "emission": cmd_emission,
    "compare-standard": cmd_compare_standard,
}


def _build_parser() -> argparse.ArgumentParser:
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
        cfg, _ = load_config(args.config)
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {str(outdir)!r} is not a usable output directory: "
                              f"{exc.strerror or exc}") from None
        return COMMANDS[args.command](cfg, outdir, args.tolerance, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
