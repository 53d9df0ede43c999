"""Two-level atom coupled to the mode superposition: dipole/RWA Hamiltonian,
interaction picture, and first-order spontaneous/stimulated amplitudes.

Atom conventions (this library's choice): within each mode's sector the
atom level is the slower index axis, ahead of the photon number (see
:mod:`monofield.hilbert`); level 0 = ground |->, level 1 = excited |+>,
sigma3 |+> = +|+>, sigma_minus |+> = |->.  The atom sits at the origin,
so no spatial phases enter the couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import fock_lowering, hamiltonian
from .dynamics import resonance_kernel
from .fields import polarization
from .hilbert import FieldConfig, HilbertLayout, ModeLabel, Operator, StateVector, unit_rows

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
    "EmissionAmplitudes",
    "first_order_emission",
    "first_order_state",
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
    """Mode-atom coupling i*sqrt(1/(2*hbar*omega*V)) * (e_s . u)."""
    if mode.abstract:
        raise ValueError(f"coupling requires a propagating mode; {mode} is abstract")
    e = polarization(mode.kappa, mode.s)
    return 1j * math.sqrt(1.0 / (2.0 * config.hbar * mode.omega * config.volume)) \
        * complex(np.dot(e, np.asarray(atom.u)))


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


def sigma_minus(layout: HilbertLayout) -> Operator:
    return sigma_plus(layout).dag()


def free_hamiltonian_with_atom(layout: HilbertLayout, atom: AtomParams,
                               config: FieldConfig) -> Operator:
    """Uncoupled part: atom splitting plus the spectral field Hamiltonian."""
    _require_atom(layout)
    field = layout.without_atom()
    # ground level minus, excited level plus half the splitting
    split = 0.5 * config.hbar * atom.omega0 * np.array([-1.0, 1.0])[:, None, None]
    field_diag = field.view(hamiltonian(field, config).diag().real)
    return Operator.from_diagonal(layout, layout.flat(field_diag + split))


def _mode_couplings(layout: HilbertLayout, atom: AtomParams,
                    config: FieldConfig) -> np.ndarray:
    """coupling(mode, atom, config) for every mode of the layout."""
    return np.array([coupling(m, atom, config) for m in layout.modes], dtype=complex)


def _coupling_assembler(layout: HilbertLayout, atom: AtomParams,
                        config: FieldConfig) -> Callable[[np.ndarray], np.ndarray]:
    """gs -> hbar*omega0*d * sum_k (gs_k a_k sigma+ + h.c.) as (M, 2b, 2b) blocks.

    Mode k's block of a_k sigma+ is its lowering block in the excited-row/
    ground-column quadrant, scaled by gs_k.  The positions of the sqrt(n)
    entries are found once; each call writes gs_k*sqrt(n) there and its
    conjugate at the transposed positions, on zero blocks.
    """
    block = _raise_atom(fock_lowering(layout.nmax))
    rows, cols = np.nonzero(block)
    sqrt_n = block[rows, cols]
    # flat positions in the stack of the sqrt(n) entries and of their transposes
    first = block.size * np.arange(layout.n_modes)[:, None]
    lower = (first + np.ravel_multi_index((rows, cols), block.shape)).ravel()
    upper = (first + np.ravel_multi_index((cols, rows), block.shape)).ravel()
    scale = config.hbar * atom.omega0 * atom.d

    def assemble(gs: np.ndarray) -> np.ndarray:
        entries = scale * (gs[:, None] * sqrt_n).ravel()
        blocks = np.zeros(layout.block_shape, dtype=complex)
        flat = blocks.reshape(-1)
        flat[lower] = entries
        flat[upper] = entries.conj()
        return blocks

    return assemble


def atom_field_hamiltonian(layout: HilbertLayout, atom: AtomParams,
                           config: FieldConfig) -> Operator:
    """Dipole/RWA Hamiltonian: atom splitting + field + sigma+ a / sigma- a^dag coupling."""
    _require_atom(layout)
    h0 = free_hamiltonian_with_atom(layout, atom, config)
    coupled = _coupling_assembler(layout, atom, config)(_mode_couplings(layout, atom, config))
    return h0 + Operator(layout, coupled)


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
                        config: FieldConfig) -> Callable[[float], Operator]:
    """t -> :func:`interaction_hamiltonian` at time t, for many times.

    The mode couplings and the positions of the coupling entries in the
    mode blocks do not depend on the time, so they are found once here and
    each call only multiplies in the detuning phases.
    """
    _require_atom(layout)
    gs = _mode_couplings(layout, atom, config)
    assemble = _coupling_assembler(layout, atom, config)
    i_detunings = 1j * (atom.omega0 - layout.omegas)

    def at(t: float) -> Operator:
        return Operator(layout, assemble(_cmul(gs, np.exp(i_detunings * t))))

    return at


def interaction_hamiltonian(layout: HilbertLayout, atom: AtomParams,
                            config: FieldConfig, t: float) -> Operator:
    """Interaction-picture coupling with detuning phases exp(+-i(omega0-omega_k)t)."""
    return interaction_picture(layout, atom, config)(t)


@dataclass(frozen=True, eq=False)
class EmissionAmplitudes:
    """All first-order transition amplitudes for one initial state and time.

    ``amplitudes`` is the read-only (M, nmax) table whose entry [k, n] is
    the amplitude from |k, n, excited> into |k, n+1, ground>: column 0 is
    spontaneous emission, the others stimulated emission.
    """

    layout: HilbertLayout
    time: float
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    def _row(self, k: int) -> np.ndarray:
        if not 0 <= k < self.layout.n_modes:
            raise IndexError(f"mode index {k} out of range [0, {self.layout.n_modes})")
        return self.amplitudes[k]

    def spontaneous(self, k: int) -> complex:
        return complex(self._row(k)[0])

    def stimulated(self, k: int) -> dict[int, complex]:
        """n -> amplitude from n >= 1 photons in mode k."""
        return dict(enumerate(self._row(k)[1:].tolist(), start=1))


def first_order_emission(initial: StateVector, atom: AtomParams,
                         config: FieldConfig, t: float) -> EmissionAmplitudes:
    """First-order amplitudes from an excited-atom state with photon weights Psi.

    Entry [k, n] of the table is omega0*d * kernel(omega0-omega_k, t)
    * Psi_(k,n) * sqrt(n+1) * conj(g_k), multiplied left to right, feeding
    |k, n+1, ground>.  Sectors the initial superposition does not populate
    come out exactly zero: the raising operator of one mode annihilates
    every other sector instead of creating a two-mode excitation.  The
    n = nmax sector has no in-layout target (the truncated raising operator
    drops it), matching exact truncated evolution.  A ground-atom norm
    above 1e-14 is refused.
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
    kernels = [resonance_kernel(atom.omega0 - m.omega, t) for m in layout.modes]
    scaled = _cmul(atom.omega0 * atom.d, kernels)[:, None]
    table = _cmul(_cmul(scaled, amps[EXCITED, :, :-1]), np.sqrt(np.arange(1, layout.fock_dim)))
    g_conj = _mode_couplings(layout, atom, config).conj()[:, None]
    return EmissionAmplitudes(layout=layout, time=t, amplitudes=_cmul(table, g_conj))


def first_order_state(initial: StateVector, atom: AtomParams, config: FieldConfig,
                      t: float) -> StateVector:
    """Interaction-picture state through first order (not normalized)."""
    amps = first_order_emission(initial, atom, config, t)
    out = initial.amplitudes.copy()
    initial.layout.view(out)[GROUND, :, 1:] += amps.amplitudes
    return StateVector(initial.layout, out)


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

