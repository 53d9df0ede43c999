"""Mode operators of the single-oscillator scheme and their algebra checks.

Every mode operator is a frequency-sector projector tensored with one
shared Fock ladder, so cross-mode products like a_k a_l or a_k^dag a_l^dag
vanish identically (k != l) instead of creating two-mode excitations.

Truncation note: with the ladder cut at nmax = N, the product a a^dag
loses its top rung, so the commutator [a, a^dag] equals the identity only
on the interior subspace n <= N-1 and picks up the exact boundary term
-(N+1)|N><N| at the edge.  Constructors that need the untruncated
spectrum (Hamiltonian, momentum) therefore build diagonals directly from
the closed-form eigenvalues; the ladder-product forms are kept as
separate constructors for identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import FieldConfig, HilbertLayout, Operator

__all__ = [
    "fock_lowering",
    "ladder",
    "mode_projector",
    "mode_annihilator",
    "frequency_operator",
    "hamiltonian",
    "hamiltonian_from_frequency_operator",
    "hamiltonian_from_mode_ladders",
    "momentum",
    "momentum_from_mode_ladders",
    "interior_indices",
    "full_commutator_reference",
    "RELATIONS",
    "AlgebraTable",
    "verify_algebra",
    "algebra_reports_csv",
]

DEFAULT_ALGEBRA_TOL = 1e-12
# the relations verify_algebra checks, in the order of its table's last axis
RELATIONS = ("commutator", "product_aa", "product_adad")
_VERDICTS = {True: "true", False: "false"}


def fock_lowering(nmax: int) -> np.ndarray:
    """(N+1) x (N+1) lowering matrix with <n-1|a|n> = sqrt(n)."""
    a = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    for n in range(1, nmax + 1):
        a[n - 1, n] = np.sqrt(n)
    return a


def _lowering_block(layout: HilbertLayout) -> np.ndarray:
    """One mode's (atom, n)-square block of the Fock lowering operator."""
    return layout.on_each_level(fock_lowering(layout.nmax))


def ladder(layout: HilbertLayout) -> Operator:
    """Lowering operator on the shared Fock factor (identity on mode labels)."""
    return Operator(layout, np.broadcast_to(_lowering_block(layout), layout.block_shape))


def _sector_diagonal(layout: HilbertLayout, k: int, values) -> Operator:
    """Diagonal operator with ``values`` on mode k's sector (per n), zero elsewhere."""
    if not 0 <= k < layout.n_modes:
        raise ValueError(f"mode index {k} out of range [0, {layout.n_modes})")
    d = np.zeros(layout.dimension)
    layout.view(d)[:, k] = values
    return Operator.from_diagonal(layout, d)


def mode_projector(layout: HilbertLayout, k: int) -> Operator:
    """Projector onto the frequency sector of mode k, identity on the Fock factor."""
    return _sector_diagonal(layout, k, 1.0)


def mode_annihilator(layout: HilbertLayout, k: int) -> Operator:
    """Sector projector |k><k| tensor the Fock lowering operator: the
    lowering block on mode k, zero blocks on every other mode."""
    if not 0 <= k < layout.n_modes:
        raise ValueError(f"mode index {k} out of range [0, {layout.n_modes})")
    blocks = np.zeros(layout.block_shape, dtype=complex)
    blocks[k] = _lowering_block(layout)
    return Operator(layout, blocks)


def frequency_operator(layout: HilbertLayout) -> Operator:
    """Diagonal operator with eigenvalue omega_k on every |k, n> ket."""
    return Operator.from_diagonal(layout, layout.flat(layout.omegas[:, None]))


def hamiltonian(layout: HilbertLayout, config: FieldConfig | None = None) -> Operator:
    """Free Hamiltonian, diagonal with eigenvalues hbar*omega_k*(n + 1/2).

    Built directly from the spectrum, so the eigenvalues are exact on the
    truncated space (no top-rung droop).
    """
    if layout.has_atom:
        raise ValueError("free-field hamiltonian requires a layout without atom factor")
    hbar = (config or FieldConfig()).hbar
    halves = np.arange(layout.fock_dim) + 0.5
    return Operator.from_diagonal(layout, layout.flat(hbar * np.outer(layout.omegas, halves)))


def hamiltonian_from_frequency_operator(layout: HilbertLayout,
                                        config: FieldConfig | None = None) -> Operator:
    """Frequency operator tensored with (a^dag a + a a^dag)/2, truncated products.

    Differs from :func:`hamiltonian` only in the n = nmax states, where
    the truncated a a^dag loses its top matrix element.
    """
    if layout.has_atom:
        raise ValueError("free-field hamiltonian requires a layout without atom factor")
    hbar = (config or FieldConfig()).hbar
    sym = 0.5 * _ladder_symmetric_diag(layout.nmax)
    return Operator.from_diagonal(layout, layout.flat(hbar * np.outer(layout.omegas, sym)))


def _ladder_symmetric_diag(nmax: int) -> np.ndarray:
    """Diagonal of a^dag a + a a^dag on one truncated ladder (top rung keeps
    only a^dag a).  Both products are diagonal; taking them from the matrix
    products keeps their rounding (sqrt(n)^2 is not always n)."""
    a = fock_lowering(nmax)
    ad = a.conj().T
    return np.diagonal(ad @ a + a @ ad).real


def hamiltonian_from_mode_ladders(layout: HilbertLayout,
                                  config: FieldConfig | None = None) -> Operator:
    """Sum form (1/2) sum_k hbar*omega_k (a_k^dag a_k + a_k a_k^dag), truncated products.

    Mode k's sector holds (hbar*omega_k/2) times the diagonal of the
    symmetrized product on one ladder, the same value a sum over the
    mode annihilators gives.
    """
    if layout.has_atom:
        raise ValueError("free-field hamiltonian requires a layout without atom factor")
    hbar = (config or FieldConfig()).hbar
    scale = 0.5 * hbar * layout.omegas
    sym = _ladder_symmetric_diag(layout.nmax)
    return Operator.from_diagonal(layout, layout.flat(np.outer(scale, sym)))


def _require_field_modes(layout: HilbertLayout, what: str):
    for m in layout.modes:
        if m.abstract:
            raise ValueError(f"{what} requires propagating modes; {m} is abstract")


def momentum(layout: HilbertLayout,
             config: FieldConfig | None = None) -> tuple[Operator, Operator, Operator]:
    """Momentum components, diagonal with eigenvalues hbar*kappa_i*(n + 1/2)."""
    _require_field_modes(layout, "momentum")
    hbar = (config or FieldConfig()).hbar
    halves = np.arange(layout.fock_dim) + 0.5
    return tuple(Operator.from_diagonal(layout, layout.flat(hbar * np.outer(kappa, halves)))
                 for kappa in layout.kappas.T)


def momentum_from_mode_ladders(layout: HilbertLayout,
                               config: FieldConfig | None = None
                               ) -> tuple[Operator, Operator, Operator]:
    """Momentum from the ladder products, the form the field integrals reproduce.

    Built like :func:`hamiltonian_from_mode_ladders`: mode k's sector of
    component i holds hbar*kappa_ki times the diagonal of (a^dag a + a a^dag)/2.
    """
    _require_field_modes(layout, "momentum")
    hbar = (config or FieldConfig()).hbar
    sym = 0.5 * _ladder_symmetric_diag(layout.nmax)
    return tuple(Operator.from_diagonal(layout, layout.flat(np.outer(hbar * kappa, sym)))
                 for kappa in layout.kappas.T)


def interior_indices(layout: HilbertLayout) -> np.ndarray:
    """Flat indices of all basis kets with photon number n <= nmax - 1."""
    return np.flatnonzero(layout.flat(np.arange(layout.fock_dim) < layout.nmax))


def full_commutator_reference(layout: HilbertLayout, k: int) -> Operator:
    """Exact full-space [a_k, a_k^dag]: the sector projector minus (N+1)|N><N|."""
    # diagonal is (1, ..., 1, -N) on the sector: identity minus (N+1) at n = N
    return _sector_diagonal(layout, k, np.r_[np.ones(layout.nmax), -layout.nmax])


@dataclass(frozen=True, eq=False)
class AlgebraTable:
    """The read-only (M, M, 3) ``deviations[k, l, r]`` of relation
    ``RELATIONS[r]`` for the mode pair (k, l); a relation holds when its
    deviation is below ``tol``."""

    tol: float
    deviations: np.ndarray

    def __post_init__(self):
        self.deviations.setflags(write=False)

    @property
    def passed(self) -> np.ndarray:
        return self.deviations < self.tol

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(~self.passed))

    def __len__(self) -> int:
        return self.deviations.size


def verify_algebra(layout: HilbertLayout, tol: float = DEFAULT_ALGEBRA_TOL,
                   annihilators: list[Operator] | None = None) -> AlgebraTable:
    """Check the projector-valued commutation relation and both product rules.

    For every ordered mode pair (k, l), the three ``RELATIONS`` are checked:

    * ``commutator``: [a_k, a_l^dag] = delta_kl P_k; on the interior
      subspace for k = l, on the full space (exact zero) otherwise.
    * ``product_aa``: a_k a_l = delta_kl a_k^2.
    * ``product_adad``: a_k^dag a_l^dag = delta_kl (a_k^dag)^2.

    ``annihilators`` may inject precomputed (or deliberately corrupted)
    mode operators; by default they are built from the layout.  Each one
    is kept as mode blocks: its own mode's block and every other nonzero
    one (a diagonal operator as diagonal blocks).  Products are blockwise,
    so a pair is multiplied as one stack of blocks on the modes both keep,
    and agrees with the full-space product up to how its terms are fused
    (bit for bit for the ladders); a cross pair (k != l) with no nonzero
    block on a common mode keeps the table's exact zeros.  Non-finite
    entries are refused with ValueError (a full-space product would spread
    them as NaN through 0 * inf).
    """
    m_count = layout.n_modes
    if annihilators is not None and len(annihilators) != m_count:
        raise ValueError("need one annihilator per mode")
    occupied = np.zeros((m_count, m_count))
    modes, blocks = [], []
    for k in range(m_count):
        # built one at a time, so only its kept blocks stay, not M full stacks
        op = mode_annihilator(layout, k) if annihilators is None else annihilators[k]
        if op.layout != layout:
            raise ValueError(f"annihilator {k} lives on a different layout")
        if not np.all(np.isfinite(op.data)):
            raise ValueError(f"annihilator {k} has non-finite entries")
        stack = op.as_blocks()
        nonzero = np.any(stack != 0, axis=(1, 2))
        occupied[k] = nonzero
        nonzero[k] = True  # its own block, where P_k lives, is kept even if zero
        modes.append(np.flatnonzero(nonzero))
        blocks.append(stack[modes[k]])
    multiplied = (occupied @ occupied.T > 0) | np.eye(m_count, dtype=bool)
    eye = np.eye(layout.block_shape[-1])
    # the interior kets (n <= nmax - 1) of a block, in its (atom, n) order
    inner = np.flatnonzero(np.arange(len(eye)) % layout.fock_dim < layout.nmax)
    deviations = np.zeros((m_count, m_count, len(RELATIONS)))
    for k, l in np.argwhere(multiplied).tolist():
        shared, ik, il = (modes[k], slice(None), slice(None)) if k == l else \
            np.intersect1d(modes[k], modes[l], return_indices=True)
        ak, al = blocks[k][ik], blocks[l][il]
        akd, ald = ak.conj().swapaxes(1, 2), al.conj().swapaxes(1, 2)
        comm = ak @ ald - ald @ ak
        prod = ak @ al
        dprod = akd @ ald
        if k == l:  # P_k is the identity on mode k's block
            comm[shared == k] -= eye
            comm = comm[:, inner[:, None], inner]
            prod = prod - ak @ ak
            dprod = dprod - akd @ akd
        deviations[k, l] = [np.max(np.abs(x)) for x in (comm, prod, dprod)]
    return AlgebraTable(tol, deviations)


def algebra_reports_csv(table: AlgebraTable, path) -> None:
    """Write the table as CSV: relation, k, l, subspace, deviation, pass.

    One row per (k, l, relation) in that order.  The diagonal commutator's
    subspace is ``interior``, every other row's ``full``; a deviation is
    its shortest round-trip ``repr``.  Rows are written one k at a time,
    and every cross pair whose three deviations are 0.0 from one template.
    The table does not go through the CLI's columnar ``_write_csv``: most
    of its rows are such zero pairs, and the columns gave the same bytes
    7 to 9 times slower (best of 5 on 2 cores: 337-481 ms against 36-64 ms
    for the 184 512 rows of the 248-mode box at nmax 5).
    """
    zero_tail = f",full,0.0,{_VERDICTS[0.0 < table.tol]}\n"
    labels = [str(l) for l in range(len(table.deviations))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("relation,k,l,subspace,deviation,pass\n")
        for k, (devs, verdicts) in enumerate(zip(table.deviations, table.passed)):
            heads = [f"{name},{k}," for name in RELATIONS]
            comm, aa, adad = heads
            diagonal = labels[k]
            lines = []
            for l, dev, verdict in zip(labels, devs.tolist(), verdicts.tolist()):
                if dev == [0.0, 0.0, 0.0] and l != diagonal:
                    lines.append(f"{comm}{l}{zero_tail}{aa}{l}{zero_tail}{adad}{l}{zero_tail}")
                    continue
                subspaces = ("interior" if l == diagonal else "full", "full", "full")
                lines += [f"{head}{l},{subspace},{d!r},{_VERDICTS[v]}\n"
                          for head, subspace, d, v in zip(heads, subspaces, dev, verdict)]
            fh.write("".join(lines))
