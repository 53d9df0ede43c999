"""Two-level atom coupled to the mode superposition: dipole/RWA Hamiltonian,
interaction picture, and first-order spontaneous/stimulated amplitudes.

Atom conventions (this library's choice): the atom factor is the slowest
index axis, level 0 = ground |->, level 1 = excited |+>, sigma3 |+> = +|+>,
sigma_minus |+> = |->.  The atom sits at the origin, so no spatial phases
enter the couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import fock_lowering, hamiltonian, lift_over_atom
from .dynamics import resonance_kernel
from .fields import polarization
from .hilbert import FieldConfig, HilbertLayout, ModeLabel, Operator, StateVector

__all__ = [
    "AtomParams",
    "coupling",
    "sigma3",
    "sigma_plus",
    "sigma_minus",
    "free_hamiltonian_with_atom",
    "atom_field_hamiltonian",
    "interaction_picture",
    "interaction_hamiltonian",
    "EmissionRecord",
    "EmissionAmplitudes",
    "first_order_emission",
    "first_order_state",
    "VacuumCheck",
    "vacuum_subspace_check",
]

GROUND, EXCITED = 0, 1


@dataclass(frozen=True)
class AtomParams:
    """Two-level atom at the origin: transition frequency, dipole scale, direction.

    ``u`` is the complex unit vector of the dipole matrix element between
    the excited and ground states; ``d`` is its magnitude (d = 0 is the
    decoupled limit).
    """

    omega0: float
    d: float
    u: tuple[complex, complex, complex]

    def __post_init__(self):
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if not (self.d >= 0 and math.isfinite(self.d)):
            raise ValueError(f"dipole magnitude must be >= 0, got {self.d}")
        uv = tuple(complex(z) for z in self.u)
        if len(uv) != 3:
            raise ValueError("dipole direction must be a 3-vector")
        norm = math.sqrt(sum(abs(z) ** 2 for z in uv))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"dipole direction must be unit length, |u| = {norm}")
        object.__setattr__(self, "u", uv)

    @classmethod
    def make(cls, omega0: float, d: float, direction: Sequence[complex]) -> "AtomParams":
        """Build with the direction normalized for the caller."""
        uv = np.asarray(direction, dtype=complex)
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            norm = np.linalg.norm(uv)
        if norm == 0.0:
            raise ValueError("dipole direction must be nonzero")
        if not np.isfinite(norm):
            raise ValueError("the norm of the dipole direction overflows")
        return cls(float(omega0), float(d), tuple(uv / norm))


def coupling(mode: ModeLabel, atom: AtomParams, config: FieldConfig) -> complex:
    """Mode-atom coupling i*sqrt(1/(2*hbar*omega*V)) * (e_s . u)."""
    if mode.abstract:
        raise ValueError(f"coupling requires a propagating mode; {mode} is abstract")
    e = polarization(mode.kappa, mode.s)
    return 1j * math.sqrt(1.0 / (2.0 * config.hbar * mode.omega * config.volume)) \
        * complex(np.dot(e, np.asarray(atom.u)))


def _require_atom(layout: HilbertLayout):
    if not layout.has_atom:
        raise ValueError("layout has no atom factor")


def sigma3(layout: HilbertLayout) -> Operator:
    _require_atom(layout)
    d = np.concatenate([-np.ones(layout.field_dim), np.ones(layout.field_dim)])
    return Operator.from_diagonal(layout, d)


def sigma_plus(layout: HilbertLayout) -> Operator:
    _require_atom(layout)
    m = np.zeros((layout.dimension,) * 2, dtype=complex)
    f = layout.field_dim
    m[f:, :f] = np.eye(f)
    return Operator(layout, m)


def sigma_minus(layout: HilbertLayout) -> Operator:
    return sigma_plus(layout).dag()


def free_hamiltonian_with_atom(layout: HilbertLayout, atom: AtomParams,
                               config: FieldConfig) -> Operator:
    """Uncoupled part: atom splitting plus the spectral field Hamiltonian."""
    _require_atom(layout)
    field_diag = hamiltonian(layout.without_atom(), config).diag().real
    d = lift_over_atom(layout, field_diag)
    d[:layout.field_dim] -= 0.5 * config.hbar * atom.omega0
    d[layout.field_dim:] += 0.5 * config.hbar * atom.omega0
    return Operator.from_diagonal(layout, d)


def _mode_couplings(layout: HilbertLayout, atom: AtomParams,
                    config: FieldConfig) -> np.ndarray:
    """coupling(mode, atom, config) for every mode of the layout."""
    return np.array([coupling(m, atom, config) for m in layout.modes], dtype=complex)


def _coupling_assembler(layout: HilbertLayout, atom: AtomParams,
                        config: FieldConfig) -> Callable[[np.ndarray], np.ndarray]:
    """gs -> hbar*omega0*d * sum_k (gs_k a_k sigma+ + h.c.) as a dense matrix.

    a_k sigma+ maps ground to excited, so mode k's lowering block, scaled by
    gs_k, sits in the excited-row/ground-column quadrant and its adjoint in
    the other one.  The positions of the sqrt(n) entries are found once;
    each call adds gs_k*sqrt(n) onto zeros there, which is the sector sum
    of the scaled blocks down to the sign of zeros.
    """
    m, b, f = layout.n_modes, layout.fock_dim, layout.field_dim
    lowering = fock_lowering(layout.nmax)
    block_rows, block_cols = np.nonzero(lowering)
    mode = np.repeat(np.arange(m), block_rows.size)
    cols = mode * b + np.tile(block_cols, m)
    rows = f + mode * b + np.tile(block_rows, m)
    sqrt_n = np.tile(lowering[block_rows, block_cols], m)
    scale = config.hbar * atom.omega0 * atom.d
    dim = layout.dimension
    lower, upper = rows * dim + cols, cols * dim + rows  # flat positions

    def assemble(gs: np.ndarray) -> np.ndarray:
        entries = gs[mode] * sqrt_n
        total = np.zeros(dim * dim, dtype=complex)
        total[lower] += entries
        total[upper] += entries.conj()
        return scale * total.reshape(dim, dim)

    return assemble


def atom_field_hamiltonian(layout: HilbertLayout, atom: AtomParams,
                           config: FieldConfig) -> Operator:
    """Dipole/RWA Hamiltonian: atom splitting + field + sigma+ a / sigma- a^dag coupling."""
    _require_atom(layout)
    h0 = free_hamiltonian_with_atom(layout, atom, config)
    coupled = _coupling_assembler(layout, atom, config)(_mode_couplings(layout, atom, config))
    return Operator(layout, h0.toarray() + coupled)


def interaction_picture(layout: HilbertLayout, atom: AtomParams,
                        config: FieldConfig) -> Callable[[float], Operator]:
    """t -> :func:`interaction_hamiltonian` at time t, for many times.

    The mode couplings and the matrix positions do not depend on the time,
    so they are found once here and each call only multiplies in the
    detuning phases.
    """
    _require_atom(layout)
    gs = _mode_couplings(layout, atom, config)
    assemble = _coupling_assembler(layout, atom, config)
    i_detunings = 1j * (atom.omega0 - layout.omegas)

    def at(t: float) -> Operator:
        phases = np.exp(i_detunings * t)
        # written out in real parts to round like complex scalar products
        phased = np.empty_like(gs)
        phased.real = gs.real * phases.real - gs.imag * phases.imag
        phased.imag = gs.real * phases.imag + gs.imag * phases.real
        return Operator(layout, assemble(phased))

    return at


def interaction_hamiltonian(layout: HilbertLayout, atom: AtomParams,
                            config: FieldConfig, t: float) -> Operator:
    """Interaction-picture coupling with detuning phases exp(+-i(omega0-omega_k)t)."""
    return interaction_picture(layout, atom, config)(t)


@dataclass(frozen=True)
class EmissionRecord:
    """First-order amplitude into |mode, n_initial+1, ground>."""

    mode_index: int
    mode: ModeLabel
    n_initial: int
    amplitude: complex
    channel: str  # "spontaneous" (n_initial = 0) or "stimulated"


@dataclass(frozen=True)
class EmissionAmplitudes:
    """All first-order transition amplitudes for one initial state and time."""

    layout: HilbertLayout
    time: float
    records: tuple[EmissionRecord, ...]

    def spontaneous(self, k: int) -> complex:
        for r in self.records:
            if r.mode_index == k and r.n_initial == 0:
                return r.amplitude
        return 0.0

    def stimulated(self, k: int) -> dict[int, complex]:
        return {r.n_initial: r.amplitude for r in self.records
                if r.mode_index == k and r.n_initial >= 1}


def first_order_emission(initial: StateVector, atom: AtomParams,
                         config: FieldConfig, t: float,
                         ground_tol: float = 1e-14) -> EmissionAmplitudes:
    """First-order amplitudes from an excited-atom state with photon weights Psi.

    Each amplitude is omega0*d * kernel(omega0-omega_k, t) * Psi_(k,n)
    * sqrt(n+1) * conj(g_k), feeding |k, n+1, ground>.  Sectors the
    initial superposition does not populate come out exactly zero: the
    raising operator of one mode annihilates every other sector instead
    of creating a two-mode excitation.  The n = nmax sector has no
    in-layout target (the truncated raising operator drops it), matching
    exact truncated evolution.
    """
    layout = initial.layout
    _require_atom(layout)
    ground_norm = float(np.linalg.norm(initial.amplitudes[:layout.field_dim]))
    if ground_norm > ground_tol:
        raise ValueError(
            f"initial state has ground-atom components (norm {ground_norm:.3e}); "
            "first-order emission starts from the excited sector"
        )
    records = []
    for k, m in enumerate(layout.modes):
        g_conj = np.conj(coupling(m, atom, config))
        kernel = resonance_kernel(atom.omega0 - m.omega, t)
        for n in range(layout.nmax):
            psi = initial.amplitude(k, n, EXCITED)
            amp = atom.omega0 * atom.d * kernel * psi * math.sqrt(n + 1) * g_conj
            records.append(EmissionRecord(
                mode_index=k, mode=m, n_initial=n, amplitude=complex(amp),
                channel="spontaneous" if n == 0 else "stimulated"))
    return EmissionAmplitudes(layout=layout, time=t, records=tuple(records))


def first_order_state(initial: StateVector, atom: AtomParams, config: FieldConfig,
                      t: float) -> StateVector:
    """Interaction-picture state through first order (not normalized)."""
    amps = first_order_emission(initial, atom, config, t)
    out = initial.amplitudes.copy()
    for r in amps.records:
        out[initial.layout.flatten(r.mode_index, r.n_initial + 1, GROUND)] += r.amplitude
    return StateVector(initial.layout, out)


@dataclass(frozen=True)
class VacuumCheck:
    """Whether a state lies in the zero-photon subspace, and its field energy."""

    is_vacuum: bool
    field_energy: float
    max_excited_component: float

    def __bool__(self) -> bool:
        return self.is_vacuum


def vacuum_subspace_check(state: StateVector, config: FieldConfig | None = None,
                          tol: float = 1e-14) -> VacuumCheck:
    """True iff every n > 0 amplitude vanishes; reports <H_field> = sum |psi|^2 * hbar*omega/2.

    The zero-photon states span a whole subspace, so the reported energy
    depends on the state (finite, bounded by half the largest mode energy).
    """
    cfg = config or FieldConfig()
    layout = state.layout
    amps = state.amplitudes.reshape(-1, layout.n_modes, layout.fock_dim)
    worst = float(np.max(np.abs(amps[:, :, 1:])))
    energy = np.sum(0.5 * cfg.hbar * layout.omegas * np.abs(amps[:, :, 0]) ** 2)
    return VacuumCheck(is_vacuum=bool(worst < tol), field_energy=float(energy),
                       max_excited_component=worst)

