"""Standard mode quantization: one oscillator per mode on a tensor-product
Fock space.  Comparison baseline for the single-oscillator scheme.

Every number the comparison report takes from the standard scheme has a
closed form: the dimension (nmax+1)^M, the vacuum energy (1/2) sum_k
hbar*omega_k, the norm 1 of the two-photon state a_0^dag a_1^dag|0>, and
the first-order emission amplitudes.  :func:`standard_scheme_run` uses
them, so the report's standard side costs O(M) at any size.  The
tensor-product layout itself (:class:`StandardLayout` with its operators)
is a test oracle for those closed forms, deliberately capped in size
because its dimension grows as (nmax+1)^M.

No normal ordering anywhere: the ground-state energy is kept, so vacuum
energies can be compared like-for-like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .algebra import fock_lowering, mode_annihilator
from .dynamics import resonance_kernel
from .emission import EXCITED, AtomParams, first_order_emission, mode_couplings
from .hilbert import FieldConfig, ModeLabel, build_layout, superposition, unit_rows

__all__ = [
    "MAX_MODES",
    "MAX_NMAX",
    "StandardLayout",
    "build_standard_layout",
    "standard_mode_annihilator",
    "standard_hamiltonian",
    "standard_atom_field_hamiltonian",
    "standard_vacuum_energy",
    "standard_first_order_emission",
    "jc_rabi_half_frequency",
    "jc_excited_population",
    "single_oscillator_run",
    "standard_scheme_run",
    "compare_report",
]

MAX_MODES = 4
MAX_NMAX = 3


@dataclass(frozen=True)
class StandardLayout:
    """Tensor-product Fock layout: occupation tuples (n_0, ..., n_{M-1}).

    Mode 0 is the slowest occupation axis; an atom factor, when present,
    is slower still (level 0 = ground, 1 = excited).
    """

    modes: tuple[ModeLabel, ...]
    nmax: int
    atom_levels: int = 0

    def __post_init__(self):
        if len(self.modes) > MAX_MODES:
            raise ValueError(f"standard layout capped at {MAX_MODES} modes")
        if self.nmax > MAX_NMAX:
            raise ValueError(f"standard layout capped at nmax = {MAX_NMAX}")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def fock_dim(self) -> int:
        return self.nmax + 1

    @property
    def field_dim(self) -> int:
        return self.fock_dim ** self.n_modes

    @property
    def dimension(self) -> int:
        return self.field_dim * max(1, self.atom_levels)

    @property
    def has_atom(self) -> bool:
        return self.atom_levels == 2

    def flatten(self, occupation: Sequence[int], atom: int = 0) -> int:
        if len(occupation) != self.n_modes:
            raise IndexError("occupation tuple has wrong length")
        idx = 0
        for n in occupation:
            if not 0 <= n <= self.nmax:
                raise IndexError(f"occupation {n} out of range [0, {self.nmax}]")
            idx = idx * self.fock_dim + n
        return atom * self.field_dim + idx

    def basis_state(self, occupation: Sequence[int], atom: int = 0) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=complex)
        vec[self.flatten(occupation, atom)] = 1.0
        return vec


def build_standard_layout(modes: Sequence[ModeLabel], nmax: int,
                          with_atom: bool = False) -> StandardLayout:
    """The tensor-product layout, after :func:`build_layout`'s checks of the
    mode set and nmax."""
    layout = build_layout(modes, nmax, with_atom)
    return StandardLayout(layout.modes, layout.nmax, layout.atom_levels)


def standard_mode_annihilator(layout: StandardLayout, k: int) -> np.ndarray:
    """1 x ... x a x ... x 1 with the lowering matrix in slot k."""
    if not 0 <= k < layout.n_modes:
        raise ValueError(f"mode index {k} out of range [0, {layout.n_modes})")
    eye = np.eye(layout.fock_dim, dtype=complex)
    mats = [eye] * layout.n_modes
    mats[k] = fock_lowering(layout.nmax)
    field = reduce(np.kron, mats)
    return np.kron(np.eye(2), field) if layout.has_atom else field


def standard_hamiltonian(layout: StandardLayout,
                         config: FieldConfig | None = None) -> np.ndarray:
    """Free field sum_k hbar*omega_k*(n_k + 1/2), ground-state energy kept."""
    hbar = (config or FieldConfig()).hbar
    diag = np.zeros(layout.field_dim)
    for k, m in enumerate(layout.modes):
        eye_diag = [np.ones(layout.fock_dim)] * layout.n_modes
        eye_diag[k] = np.arange(layout.fock_dim) + 0.5
        diag += hbar * m.omega * reduce(np.kron, eye_diag)
    return np.diag(np.tile(diag, max(1, layout.atom_levels)).astype(complex))


def standard_vacuum_energy(modes: Sequence[ModeLabel],
                           config: FieldConfig | None = None) -> float:
    """(1/2) sum_k hbar*omega_k: unique vacuum, state-independent."""
    hbar = (config or FieldConfig()).hbar
    return 0.5 * hbar * float(np.sum([m.omega for m in modes]))


def standard_atom_field_hamiltonian(layout: StandardLayout, atom: AtomParams,
                                    config: FieldConfig) -> np.ndarray:
    """Dipole/RWA Hamiltonian on the tensor-product space, same conventions."""
    if not layout.has_atom:
        raise ValueError("layout has no atom factor")
    f = layout.field_dim
    h = standard_hamiltonian(layout, config)
    atom_diag = np.concatenate([-np.ones(f), np.ones(f)])
    h += 0.5 * config.hbar * atom.omega0 * np.diag(atom_diag.astype(complex))
    sp_mat = np.zeros((layout.dimension,) * 2, dtype=complex)
    sp_mat[f:, :f] = np.eye(f)
    for k, g in enumerate(mode_couplings(layout.modes, atom, config).tolist()):
        term = config.hbar * atom.omega0 * atom.d * g * (
            standard_mode_annihilator(layout, k) @ sp_mat)
        h += term + term.conj().T
    return h


def standard_first_order_emission(atom: AtomParams, modes: Sequence[ModeLabel],
                                  config: FieldConfig, t: float) -> np.ndarray:
    """The (M,) textbook first-order amplitudes from |vac> x |excited>.

    Mode k receives omega0*d*conj(g_k)*kernel(omega0-omega_k, t) from the
    one shared vacuum, a product of Python scalars in that order; there is
    no per-mode weighting.
    """
    return np.array([atom.omega0 * atom.d * np.conj(g) * resonance_kernel(atom.omega0 - m.omega, t)
                     for m, g in zip(modes, mode_couplings(modes, atom, config).tolist())],
                    dtype=complex)


# -- Jaynes-Cummings closed forms ----------------------------------------


def jc_rabi_half_frequency(atom: AtomParams, g: complex, n: int = 0) -> float:
    """Half-Rabi frequency omega0*d*|g|*sqrt(n+1) of the (n, +) <-> (n+1, -) doublet."""
    return atom.omega0 * atom.d * abs(g) * math.sqrt(n + 1)


def jc_excited_population(atom: AtomParams, g: complex, n: int, t: float,
                          detuning: float = 0.0) -> float:
    """Excited-state survival probability from |n, +> in the two-level doublet.

    General-detuning textbook result; at resonance it reduces to
    cos^2(lambda*sqrt(n+1)*t) with lambda the half-Rabi frequency.
    """
    lam = jc_rabi_half_frequency(atom, g, n)
    omega_g = math.sqrt(lam ** 2 + 0.25 * detuning ** 2)
    if omega_g == 0.0:
        return 1.0
    return 1.0 - (lam ** 2 / omega_g ** 2) * math.sin(omega_g * t) ** 2


# -- scheme comparison ----------------------------------------------------


def single_oscillator_run(modes: Sequence[ModeLabel], nmax: int, config: FieldConfig,
                          atom: AtomParams | None = None, t: float = 1.0,
                          seed: int = 0) -> dict:
    """Summary of the single-oscillator scheme for the comparison report: five
    sampled vacuum energies and, with an atom, the (M,) emission amplitudes
    from the excited atom in the equal-weight superposition of the vacuum
    sectors, with those weights and the mode frequencies."""
    layout = build_layout(modes, nmax)
    hbar = config.hbar
    omegas = layout.omegas
    # five unit weight rows, each drawn as its real parts, then its imaginary ones
    draws = np.random.default_rng(seed).normal(size=(5, 2, len(modes)))
    weights = unit_rows(draws[:, 0] + 1j * draws[:, 1])
    run = {
        "dimension": layout.dimension,
        "vacuum_energy_min": 0.5 * hbar * float(omegas.min()),
        "vacuum_energy_max": 0.5 * hbar * float(omegas.max()),
        "vacuum_energy_samples":
            (0.5 * hbar * np.sum(np.abs(weights) ** 2 * omegas, axis=1)).tolist(),
        "cross_mode_double_creation": 0.0 if layout.n_modes < 2 else (
            mode_annihilator(layout, 0).dag() @ mode_annihilator(layout, 1).dag()).max_abs(),
    }
    if atom is not None:
        emit_layout = build_layout(modes, nmax, with_atom=True)
        weight = 1.0 / math.sqrt(len(modes))
        initial = superposition(emit_layout, {(k, 0, EXCITED): weight for k in range(len(modes))})
        run["emission"] = first_order_emission(initial, atom, config, t)[:, 0]
        run["emission_weights"] = np.full(len(modes), weight, dtype=complex)
        run["omegas"] = omegas
    return run


def standard_scheme_run(modes: Sequence[ModeLabel], nmax: int, config: FieldConfig,
                        atom: AtomParams | None = None, t: float = 1.0) -> dict:
    """Summary of the tensor-product scheme for the comparison report, from
    its closed forms at any number of modes; no tensor-product space is built."""
    layout = build_layout(modes, nmax)  # the mode-set and nmax checks
    modes = layout.modes
    run = {
        "dimension": layout.fock_dim ** layout.n_modes,  # an exact Python int
        "vacuum_energy": standard_vacuum_energy(modes, config),
        # a_0^dag a_1^dag |0> is the unit ket |1, 1, 0, ...>
        "cross_mode_double_creation": 1.0 if len(modes) >= 2 else 0.0,
    }
    if atom is not None:
        run["emission"] = standard_first_order_emission(atom, modes, config, t)
    return run


def compare_report(single_run: dict, standard_run: dict) -> dict:
    """Structured diff of the two schemes: dimensions, vacua, algebra and, with
    emission amplitudes in both runs, one row per mode by position: the two
    amplitudes, the weight and the Python complex ratio (None over a zero)."""
    report = {
        "dimensions": {
            "single_oscillator": single_run["dimension"],
            "standard": standard_run["dimension"],
        },
        "vacuum_energy": {
            "single_oscillator_min": single_run["vacuum_energy_min"],
            "single_oscillator_max": single_run["vacuum_energy_max"],
            "single_oscillator_samples": single_run["vacuum_energy_samples"],
            "standard": standard_run["vacuum_energy"],
            "single_oscillator_state_dependent": True,
            "standard_state_dependent": False,
        },
        "algebra": {
            # max |entry| of a_0^dag a_1^dag vs norm of the two-photon state it creates
            "cross_mode_double_creation_single_oscillator":
                single_run["cross_mode_double_creation"],
            "cross_mode_double_creation_standard":
                standard_run["cross_mode_double_creation"],
        },
    }
    if "emission" in single_run and "emission" in standard_run:
        columns = (single_run["omegas"], single_run["emission"], standard_run["emission"],
                   single_run["emission_weights"])
        report["emission"] = [
            {"mode_index": k, "omega": omega, "single_oscillator_amplitude": amp,
             "standard_amplitude": std, "weight": w,
             "amplitude_ratio": amp / std if std != 0 else None}
            for k, (omega, amp, std, w) in enumerate(zip(*(c.tolist() for c in columns)))]
    return report
