"""Two-level atom coupled to the mode superposition: dipole/RWA Hamiltonian,
interaction picture, and first-order spontaneous/stimulated amplitudes.

Atom conventions (this library's choice): within each mode's sector the
atom level is the slower index axis, ahead of the photon number (see
:mod:`monofield.hilbert`); level 0 = ground |->, level 1 = excited |+>,
sigma3 |+> = +|+>, sigma- |+> = |->.  The atom sits at the origin,
so no spatial phases enter the couplings.

The couplings g_k of all modes are one row, :func:`_mode_couplings`, over
the polarization table of :func:`monofield.fields.polarization_vectors`;
:func:`coupling` is its one-mode case.  The coupling blocks of the
Hamiltonian and of the interaction picture come from one writer,
s*(g_k*R) + h.c. with R the block of a sigma+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import fock_lowering, hamiltonian
from .dynamics import evolve_stack, resonance_kernel, spectrum
from .fields import polarization_vectors
from .hilbert import (FieldConfig, HilbertLayout, ModeLabel, Operator, StateVector, row_norms,
                      unit_rows)

__all__ = [
    "AtomParams",
    "coupling",
    "sigma3",
    "sigma_plus",
    "free_hamiltonian_with_atom",
    "atom_field_hamiltonian",
    "interaction_picture",
    "interaction_hamiltonian",
    "first_order_table",
    "first_order_emission",
    "first_order_state",
    "convergence_sweep",
    "VacuumCheck",
    "vacuum_subspace_check",
]

GROUND, EXCITED = 0, 1
# largest n > 0 amplitude modulus of a state counted as zero-photon
VACUUM_TOL = 1e-14


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
        if not np.all(np.isfinite(uv)):
            raise ValueError(f"dipole direction must be finite, got {uv}")
        norm = math.sqrt(sum(abs(z) ** 2 for z in uv))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"dipole direction must be unit length, |u| = {norm}")
        object.__setattr__(self, "u", uv)

    @classmethod
    def make(cls, omega0: float, d: float, direction: Sequence[complex]) -> "AtomParams":
        """Build with the direction normalized for the caller, the way sector
        weight rows are, so squares that under- or overflow are no fault."""
        uv = np.asarray(direction, dtype=complex)
        if not uv.any():
            raise ValueError("dipole direction must be nonzero")
        if not np.isfinite(uv).all():
            raise ValueError(f"dipole direction must be finite, got {tuple(uv.tolist())}")
        return cls(float(omega0), float(d), tuple(unit_rows(uv[None])[0]))


def coupling(mode: ModeLabel, atom: AtomParams, config: FieldConfig) -> complex:
    """Mode-atom coupling i*sqrt(1/(2*hbar*omega*V)) * (e_s . u): the one-mode
    case of :func:`_mode_couplings`."""
    return complex(_mode_couplings((mode,), atom, config)[0])


def _mode_couplings(modes: Sequence[ModeLabel], atom: AtomParams,
                    config: FieldConfig) -> np.ndarray:
    """The (M,) couplings g_k = i*sqrt(1/(2*hbar*omega_k*V)) * (e_s . u) of
    ``modes``, the one place the formula is written.

    e_s comes from the cached :func:`polarization_vectors` table and e_s . u
    is one ``np.vecdot`` over all modes; the products are those of the scalar
    formula, in its order, so each entry is bit for bit the one-mode value.
    The first abstract mode is refused.
    """
    modes = tuple(modes)
    for m in modes:
        if m.abstract:
            raise ValueError(f"coupling requires a propagating mode; {m} is abstract")
    u = np.asarray(atom.u)
    dots = np.vecdot(polarization_vectors(modes)[0].conj(), u)
    omegas = np.array([m.omega for m in modes])
    return _cmul(1j * np.sqrt(1.0 / (2.0 * config.hbar * omegas * config.volume)), dots)


def _require_atom(layout: HilbertLayout):
    if not layout.has_atom:
        raise ValueError("layout has no atom factor")


def _raise_atom(field_block: np.ndarray) -> np.ndarray:
    """(atom, n)-square block of sigma+ tensor ``field_block``: excited rows, ground columns."""
    return np.kron([[0.0, 0.0], [1.0, 0.0]], field_block)


def sigma3(layout: HilbertLayout) -> Operator:
    _require_atom(layout)
    return Operator.from_diagonal(layout, layout.flat(np.array([-1.0, 1.0])[:, None, None]))


def sigma_plus(layout: HilbertLayout) -> Operator:
    _require_atom(layout)
    return Operator(layout, np.broadcast_to(_raise_atom(np.eye(layout.fock_dim)),
                                            layout.block_shape))


def free_hamiltonian_with_atom(layout: HilbertLayout, atom: AtomParams,
                               config: FieldConfig) -> Operator:
    """Uncoupled part: atom splitting plus the spectral field Hamiltonian."""
    _require_atom(layout)
    field = layout.without_atom()
    # ground level minus, excited level plus half the splitting
    split = 0.5 * config.hbar * atom.omega0 * np.array([-1.0, 1.0])[:, None, None]
    field_diag = field.view(hamiltonian(field, config).diag().real)
    return Operator.from_diagonal(layout, layout.flat(field_diag + split))


def _coupling_blocks(lower: np.ndarray, scale, gs: np.ndarray) -> np.ndarray:
    """scale * sum_k (gs_k a_k sigma+ + h.c.) as (M, 2b, 2b) blocks, after the
    leading axes of a ``scale`` array or of ``gs``, where ``lower`` is one
    mode's block R of a sigma+: :func:`_raise_atom` of the lowering block,
    the place :func:`sigma_plus` puts the identity.

    Mode k's block is scale*(gs_k*R) on the entries of R, its conjugate at
    the transposed places and 0.0 elsewhere, as a running sum over the
    modes has it, signed zeros included.
    """
    rows, cols = np.nonzero(lower)
    entries = np.asarray(scale)[..., None, None] * (gs[..., None] * lower[rows, cols])
    blocks = np.zeros((*entries.shape[:-1], *lower.shape), dtype=complex)
    blocks[..., rows, cols] = entries
    blocks[..., cols, rows] = entries.conj()
    return blocks


def atom_field_hamiltonian(layout: HilbertLayout, atom: AtomParams,
                           config: FieldConfig) -> Operator:
    """Dipole/RWA Hamiltonian: atom splitting + field + sigma+ a / sigma- a^dag coupling."""
    return Operator(layout, _rwa_blocks(layout, atom, config, [atom.d])[1][0])


def _rwa_blocks(layout: HilbertLayout, atom: AtomParams, config: FieldConfig,
                dipoles: Sequence[float]) -> tuple[Operator, np.ndarray]:
    """The uncoupled part and the (C, M, 2b, 2b) blocks of the RWA
    Hamiltonians of C dipole scales d: its blocks plus the coupling blocks
    of the scales hbar*omega0*d, each bit for bit that of one scale."""
    _require_atom(layout)
    h0 = free_hamiltonian_with_atom(layout, atom, config)
    coupled = _coupling_blocks(_raise_atom(fock_lowering(layout.nmax)),
                               config.hbar * atom.omega0 * np.asarray(dipoles, dtype=float),
                               _mode_couplings(layout.modes, atom, config))
    return h0, h0.as_blocks() + coupled


def _cmul(a, b) -> np.ndarray:
    """Elementwise complex product a*b written out in real parts,
    (ar*br - ai*bi, ar*bi + ai*br), so every entry rounds as Python's
    complex product of the two entries does.  A real operand is the
    complex number (x, 0.0), zero terms included."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    re = ar * br - ai * bi
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = ar * bi + ai * br
    return out


def interaction_picture(layout: HilbertLayout, atom: AtomParams,
                        config: FieldConfig) -> Callable[[float | np.ndarray],
                                                         Operator | np.ndarray]:
    """t -> :func:`interaction_hamiltonian` at time t, for many times.

    The mode couplings and the block of a sigma+ do not depend on the time,
    so they are found once here and each call only multiplies in the
    detuning phases.  A 1-D array of N times gives the (N, M, 2b, 2b)
    block stack of the N couplings, each bit for bit the blocks of its
    time alone; a scalar time gives the :class:`Operator`.
    """
    _require_atom(layout)
    gs = _mode_couplings(layout.modes, atom, config)
    lower = _raise_atom(fock_lowering(layout.nmax))
    scale = config.hbar * atom.omega0 * atom.d
    i_detunings = 1j * (atom.omega0 - layout.omegas)

    def at(t):
        if np.ndim(t):
            return _coupling_blocks(lower, scale, _cmul(gs, np.exp(i_detunings * t[:, None])))
        return Operator(layout, _coupling_blocks(lower, scale, _cmul(gs, np.exp(i_detunings * t))))

    return at


def interaction_hamiltonian(layout: HilbertLayout, atom: AtomParams,
                            config: FieldConfig, t: float) -> Operator:
    """Interaction-picture coupling with detuning phases exp(+-i(omega0-omega_k)t)."""
    return interaction_picture(layout, atom, config)(t)


def first_order_table(initial: StateVector, atom: AtomParams, config: FieldConfig,
                      times: Sequence[float], dipoles: Sequence[float]) -> np.ndarray:
    """The (C, T, M, nmax) first-order amplitudes from an excited-atom state
    with photon weights Psi, for C dipole scales d and T ``times``.

    Entry [c, i, k, n] is omega0*d_c * kernel(omega0-omega_k, t_i)
    * Psi_(k,n) * sqrt(n+1) * conj(g_k), multiplied left to right, feeding
    |k, n+1, ground>; omega0*d is a column of the chain, so each entry is
    that of one scale and one time alone.  Sectors Psi leaves empty come out
    exactly zero (the raising operator of one mode annihilates the others),
    and n = nmax has no in-layout target, matching exact truncated
    evolution.  A ground-atom norm above 1e-14 is refused.
    """
    layout = initial.layout
    _require_atom(layout)
    amps = layout.view(initial.amplitudes)
    ground_norm = float(np.linalg.norm(amps[GROUND]))
    if ground_norm > 1e-14:
        raise ValueError(
            f"initial state has ground-atom components (norm {ground_norm:.3e}); "
            "first-order emission starts from the excited sector"
        )
    kernels = np.array([[resonance_kernel(atom.omega0 - w, t) for w in layout.omegas.tolist()]
                        for t in times], dtype=complex).reshape(len(times), layout.n_modes)
    strengths = atom.omega0 * np.asarray(dipoles, dtype=float)
    scaled = _cmul(strengths[:, None, None], kernels)[..., None]
    table = _cmul(_cmul(scaled, amps[EXCITED, :, :-1]), np.sqrt(np.arange(1, layout.fock_dim)))
    return _cmul(table, _mode_couplings(layout.modes, atom, config).conj()[:, None])


def first_order_emission(initial: StateVector, atom: AtomParams,
                         config: FieldConfig, t: float) -> np.ndarray:
    """The read-only (M, nmax) :func:`first_order_table` of the atom's own
    dipole at time t.  Entry [k, n] is the amplitude from |k, n, excited>
    into |k, n+1, ground>: column 0 is spontaneous emission, the others
    stimulated emission."""
    table = first_order_table(initial, atom, config, [t], [atom.d])[0, 0]
    table.setflags(write=False)
    return table


def first_order_state(initial: StateVector, atom: AtomParams, config: FieldConfig,
                      t: float) -> StateVector:
    """Interaction-picture state through first order (not normalized)."""
    out = initial.amplitudes.copy()
    initial.layout.view(out)[GROUND, :, 1:] += first_order_emission(initial, atom, config, t)
    return StateVector(initial.layout, out)


def convergence_sweep(initial: StateVector, atom: AtomParams, config: FieldConfig,
                      t: float, dipoles: Sequence[float]) -> np.ndarray:
    """|exact - first order| of the interaction-picture state at time t for
    each dipole scale, bit for bit as for one scale alone, from one
    :func:`evolve_stack`, one back-evolution and one :func:`first_order_table`.
    The first refused scale raises ``ValueError``, a fault of the uncoupled
    part after the first scale's own checks; nothing warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        h_free, blocks = _rwa_blocks(initial.layout, atom, config, dipoles)
        exact, faults = evolve_stack(blocks, initial.amplitudes, t, config.hbar)
        first_order = np.tile(initial.amplitudes, (len(dipoles), 1))
        initial.layout.view(first_order)[:, GROUND, :, 1:] += \
            first_order_table(initial, atom, config, [t], dipoles)[:, 0]
        fault = faults[0]
        if fault is None:
            try:
                exact = spectrum(h_free, config.hbar).apply(exact, -t)
            except ValueError as exc:  # met with the first scale, after its own checks
                fault = str(exc)
        first = 0 if fault else next((c for c, f in enumerate(faults) if f), None)
        if first is not None:
            raise ValueError(f"coupling {dipoles[first]!r}, t = {t!r}, "
                             f"field.hbar = {config.hbar!r}: {fault or faults[first]}")
        return row_norms(exact - first_order)


@dataclass(frozen=True)
class VacuumCheck:
    """Whether a state lies in the zero-photon subspace, and its field energy."""

    is_vacuum: bool
    field_energy: float
    max_excited_component: float

    def __bool__(self) -> bool:
        return self.is_vacuum


def vacuum_subspace_check(state: StateVector,
                          config: FieldConfig | None = None) -> VacuumCheck:
    """True iff every n > 0 amplitude is below :data:`VACUUM_TOL`; reports
    <H_field> = sum |psi|^2 * hbar*omega/2.

    The zero-photon states span a whole subspace, so the reported energy
    depends on the state (finite, bounded by half the largest mode energy).
    """
    cfg = config or FieldConfig()
    layout = state.layout
    amps = layout.view(state.amplitudes)
    worst = float(np.max(np.abs(amps[:, :, 1:])))
    energy = np.sum(0.5 * cfg.hbar * layout.omegas * np.abs(amps[:, :, 0]) ** 2)
    return VacuumCheck(is_vacuum=bool(worst < VACUUM_TOL), field_energy=float(energy),
                       max_excited_component=worst)

