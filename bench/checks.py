"""Independent output checks for the benchmark workloads.

Nothing here imports ``monofield``: every expected value is recomputed from
the generated config with numpy and the conventions the README documents
(helicity basis, ``omega = c*|kappa|``, box mode order, coherent-state
truncation).  Each checker raises :class:`CheckFailed` on the first
mismatch.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


# Tolerance of every comparison: absolute for deviations and field values,
# relative to the natural scale of the quantity elsewhere.
TOL = 1e-12


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    """|got - want| within TOL of |want| plus ``scale``."""
    return abs(got - want) <= TOL * (scale + abs(want))


def _complex(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def read_csv(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- conventions ----------------------------------------------------------


class Field:
    """Constants and mode list of a config, rebuilt from the JSON document."""

    def __init__(self, doc: dict):
        consts = doc.get("field", {})
        self.hbar = float(consts.get("hbar", 1.0))
        self.c = float(consts.get("c", 1.0))
        if "box" in doc:
            edge, top = float(doc["box"]["edge"]), int(doc["box"]["max_index"])
            self.volume = edge ** 3
            unit = 2.0 * math.pi / edge
            self.modes = [(s, unit * np.array([nx, ny, nz], dtype=float))
                          for nx in range(-top, top + 1)
                          for ny in range(-top, top + 1)
                          for nz in range(-top, top + 1) if (nx, ny, nz) != (0, 0, 0)
                          for s in (+1, -1)]
        else:
            self.volume = float(consts.get("volume", 1.0))
            self.modes = [(int(m.get("s", 1)), np.array(m["kappa"], dtype=float))
                          for m in doc["modes"]]
        self.s = np.array([s for s, _ in self.modes])
        self.kappa = np.array([k for _, k in self.modes])
        self.omega = self.c * np.linalg.norm(self.kappa, axis=1)


def helicity(kappa: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_hat, e_s) with e_s = (theta_hat + i*s*phi_hat)/sqrt(2); kappa on the
    z axis uses theta_hat = x_hat, phi_hat = sign(kz)*y_hat."""
    n_hat = kappa / np.linalg.norm(kappa)
    rho = math.hypot(n_hat[0], n_hat[1])
    if rho < 1e-14:
        theta = np.array([1.0, 0.0, 0.0])
        phi = np.array([0.0, math.copysign(1.0, n_hat[2]), 0.0])
    else:
        cp, sp = n_hat[0] / rho, n_hat[1] / rho
        theta = np.array([n_hat[2] * cp, n_hat[2] * sp, -rho])
        phi = np.array([-sp, cp, 0.0])
    return n_hat, (theta + 1j * s * phi) / math.sqrt(2.0)


def atom_coupling(field: Field, k: int, direction: np.ndarray) -> complex:
    """g_k = i*sqrt(1/(2*hbar*omega_k*V)) * (e_s . u)."""
    _, e = helicity(field.kappa[k], field.s[k])
    return 1j * math.sqrt(1.0 / (2.0 * field.hbar * field.omega[k] * field.volume)) \
        * complex(np.dot(e, direction))


def kernel(delta: float, t: float) -> complex:
    """(exp(-i*delta*t) - 1)/delta, by its series near resonance."""
    z = -1j * delta * t
    if abs(z) < 1e-6:
        return -1j * t * (1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0)
    return (np.exp(z) - 1.0) / delta


def _atom(doc: dict) -> tuple[float, float, np.ndarray]:
    atom = doc["atom"]
    u = np.array([_complex(v) for v in atom["direction"]])
    return float(atom["omega0"]), float(atom["dipole"]), u / np.linalg.norm(u)


def _spec(entry: dict) -> tuple[np.ndarray, np.ndarray]:
    """Normalized sector weights and coherent amplitudes of a state entry."""
    w = np.array([_complex(v) for v in entry["weights"]])
    alphas = np.array([_complex(v) for v in entry.get("alphas", [0.0] * len(w))])
    return w / np.linalg.norm(w), alphas


def truncated_column(alpha: complex, nmax: int) -> np.ndarray:
    """Renormalized truncated coherent amplitudes c_n ~ alpha^n/sqrt(n!)."""
    col = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(nmax + 1)],
                   dtype=complex)
    return col / np.linalg.norm(col)


def mean_photons(alpha: complex, nmax: int) -> float:
    """Mean of the renormalized truncated Poisson weights."""
    p = np.abs(truncated_column(alpha, nmax)) ** 2
    return float(np.dot(np.arange(nmax + 1), p))


# -- per-command checks ----------------------------------------------------


def check_algebra(doc: dict, outdir: Path) -> None:
    rows = read_csv(Path(outdir) / "algebra.csv")
    m = len(doc["modes"])
    _require(len(rows) == 3 * m * m, f"algebra.csv has {len(rows)} rows, want {3 * m * m}")
    seen = set()
    for r in rows:
        k, l, dev = int(r["k"]), int(r["l"]), float(r["deviation"])
        key = (r["relation"], k, l)
        _require(r["relation"] in ("commutator", "product_aa", "product_adad"),
                 f"unexpected relation {r['relation']!r}")
        _require(key not in seen, f"duplicate row {key}")
        seen.add(key)
        if k != l:
            _require(dev == 0.0, f"cross-mode row {key} has deviation {dev!r}, want 0.0")
        else:
            _require(dev < TOL, f"diagonal row {key} deviation {dev!r} >= {TOL}")
        _require(r["pass"] == "true", f"row {key} not marked as passed")


def check_vacuum(doc: dict, outdir: Path) -> None:
    rows = read_csv(Path(outdir) / "vacuum.csv")
    field = Field(doc)
    nmax = int(doc["nmax"])
    _require(len(rows) == len(doc["states"]), "vacuum.csv row count differs from states")
    scale = field.hbar * float(field.omega.max())
    contrast = 0.5 * field.hbar * float(field.omega.sum())
    for row, entry in zip(rows, doc["states"]):
        label = entry["label"]
        _require(row["label"] == label, f"row label {row['label']!r}, want {label!r}")
        w, alphas = _spec(entry)
        occupancy = np.abs(w) ** 2 * (np.array([mean_photons(a, nmax) for a in alphas]) + 0.5)
        energy = field.hbar * float(np.dot(occupancy, field.omega))
        momentum = field.hbar * occupancy @ field.kappa
        vacuum = not np.any(alphas)
        _require(row["is_vacuum"] == ("true" if vacuum else "false"),
                 f"{label}: is_vacuum {row['is_vacuum']}")
        _require(_close(float(row["energy"]), energy, scale),
                 f"{label}: energy {row['energy']} want {energy!r}")
        for axis, want in zip(("px", "py", "pz"), momentum):
            _require(_close(float(row[axis]), float(want), scale),
                     f"{label}: {axis} {row[axis]} want {float(want)!r}")
        if vacuum:
            _require(float(row["energy"]) <= 0.5 * scale * (1 + TOL),
                     f"{label}: vacuum energy {row['energy']} above hbar*max(omega)/2")
        _require(_close(float(row["standard_vacuum_energy"]), contrast),
                 f"{label}: standard vacuum energy {row['standard_vacuum_energy']}")


def check_field_sweep(doc: dict, outdir: Path) -> None:
    """Each A/E/B row against sum_k |Phi_k|^2 * 2 Re(w_k <a_k>), with <a_k> the
    expectation of the lowering operator in the truncated coherent state."""
    rows = read_csv(Path(outdir) / "field_sweep.csv")
    field = Field(doc)
    nmax = int(doc["nmax"])
    w, alphas = _spec(doc["coherent"])
    a_mean = []
    for alpha in alphas:
        col = truncated_column(alpha, nmax)
        a_mean.append(np.sum(np.sqrt(np.arange(1, nmax + 1)) * np.conj(col[:-1]) * col[1:]))
    weight = np.abs(w) ** 2 * np.array(a_mean)
    basis = [helicity(field.kappa[k], field.s[k]) for k in range(len(field.modes))]
    e_vec = np.array([e for _, e in basis])
    b_vec = np.array([np.cross(n, e) for n, e in basis])
    a_amp = np.sqrt(field.hbar / (2.0 * field.omega * field.volume))
    eb_amp = 1j * np.sqrt(field.hbar * field.omega / (2.0 * field.volume))
    grid = [(float(t), [float(v) for v in x]) for t in doc["times"] for x in doc["points"]]
    _require(len(rows) == len(grid), f"field_sweep.csv has {len(rows)} rows, want {len(grid)}")
    for row, (t, x) in zip(rows, grid):
        _require([float(row[c]) for c in ("t", "x", "y", "z")] == [t, *x],
                 f"grid point ({row['t']}, {row['x']}, {row['y']}, {row['z']}) out of order")
        phase = np.exp(-1j * field.omega * t + 1j * field.kappa @ np.array(x))
        for name, amp, vec in (("A", a_amp, e_vec), ("E", eb_amp, e_vec), ("B", eb_amp, b_vec)):
            want = 2.0 * np.real((weight * amp * phase) @ vec)
            for axis, value in zip("xyz", want):
                got = float(row[name + axis])
                _require(abs(got - value) <= TOL,
                         f"t={t} x={x}: {name}{axis} {got!r} want {float(value)!r}")


def check_emission(doc: dict, outdir: Path) -> None:
    """Each amplitude against omega0*d*K(omega0-omega_k, t)*Psi*sqrt(n+1)*conj(g_k)."""
    rows = read_csv(Path(outdir) / "emission.csv")
    field = Field(doc)
    nmax = int(doc["nmax"])
    omega0, d, u = _atom(doc)
    psi = np.zeros((len(field.modes), nmax + 1), dtype=complex)
    for entry in doc["emission_initial"]:
        psi[int(entry["mode"]), int(entry.get("n", 0))] += _complex(entry.get("amp", 1.0))
    psi /= np.linalg.norm(psi)
    expected = []
    for t in doc["times"]:
        for k in range(len(field.modes)):
            g = atom_coupling(field, k, u)
            kern = kernel(omega0 - field.omega[k], float(t))
            for n in range(nmax):
                amp = omega0 * d * kern * psi[k, n] * math.sqrt(n + 1) * np.conj(g)
                expected.append((float(t), k, n, complex(amp)))
    _require(len(rows) == len(expected), f"emission.csv has {len(rows)} rows, want {len(expected)}")
    scale = max(abs(e[3]) for e in expected)
    for row, (t, k, n, amp) in zip(rows, expected):
        where = f"t={t} mode {k} n={n}"
        _require(float(row["t"]) == t and int(row["n_initial"]) == n
                 and int(row["s"]) == field.s[k]
                 and abs(float(row["omega"]) - float(field.omega[k])) <= 1e-15 * field.omega[k],
                 f"{where}: row out of order")
        got = complex(float(row["amp_re"]), float(row["amp_im"]))
        _require(abs(got - amp) <= TOL * scale, f"{where}: amplitude {got!r} want {amp!r}")
        _require(row["channel"] == ("spontaneous" if n == 0 else "stimulated"),
                 f"{where}: channel {row['channel']}")


def check_compare(doc: dict, outdir: Path) -> None:
    with open(Path(outdir) / "comparison.json", encoding="utf-8") as fh:
        report = json.load(fh)
    m, nmax = len(doc["modes"]), int(doc["nmax"])
    standard_nmax = int(doc.get("standard_nmax", min(nmax, 3)))
    dims = report["dimensions"]
    _require(dims["single_oscillator"] == m * (nmax + 1),
             f"single-oscillator dimension {dims['single_oscillator']}, want {m * (nmax + 1)}")
    _require(dims["standard"] == (standard_nmax + 1) ** m,
             f"standard dimension {dims['standard']}, want {(standard_nmax + 1) ** m}")
    cross = report["algebra"]
    want_std = 1.0 if m >= 2 else 0.0
    _require(cross["cross_mode_double_creation_single_oscillator"] == 0.0,
             "single-oscillator cross-mode double creation is not 0.0")
    _require(cross["cross_mode_double_creation_standard"] == want_std,
             f"standard cross-mode double creation is not {want_std}")
    if "atom" not in doc:
        return
    field = Field(doc)
    omega0, d, u = _atom(doc)
    t = float(doc["times"][-1]) if doc.get("times") else 1.0
    rows = report["emission"]
    _require(len(rows) == m, f"{len(rows)} emission rows, want {m}")
    for row in rows:
        k = row["mode_index"]
        want = omega0 * d * np.conj(atom_coupling(field, k, u)) * kernel(omega0 - field.omega[k], t)
        got = _complex(row["standard_amplitude"])
        _require(abs(got - want) <= TOL * abs(want), f"mode {k}: standard amplitude {got!r}")
        single = _complex(row["single_oscillator_amplitude"])
        _require(abs(single - want / math.sqrt(m)) <= TOL * abs(want),
                 f"mode {k}: single-oscillator amplitude {single!r}")
    if m == 1 and d > 0:
        jc = report.get("jaynes_cummings_check")
        _require(jc is not None and jc["ok"] is True, "Jaynes-Cummings check missing or not ok")
        lam = omega0 * d * abs(atom_coupling(field, 0, u))
        _require(_close(jc["half_rabi_frequency"], lam),
                 f"half-Rabi frequency {jc['half_rabi_frequency']!r} want {lam!r}")


def check_energy_identity(report, n_samples: int) -> None:
    _require(report.n_samples == n_samples, f"{report.n_samples} samples, want {n_samples}")
    _require(report.energy_dev < report.tol_energy,
             f"energy deviation {report.energy_dev!r} >= {report.tol_energy}")
    low = min(report.momentum_dev_literal, report.momentum_dev_symmetrized)
    _require(low < report.tol_energy, f"momentum deviation {low!r} >= {report.tol_energy}")
    _require(report.passed, "energy identity report not passed")


def config_error_exit(rc, exc, stderr: str) -> bool:
    """True when a malformed config was refused the way the CLI promises:
    exit 2, a 'config error:' line, no exception escaping."""
    return exc is None and rc == 2 and any(
        line.startswith("config error:") for line in stderr.splitlines())
