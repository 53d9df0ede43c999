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
    "number_operator",
    "frequency_operator",
    "hamiltonian",
    "hamiltonian_from_frequency_operator",
    "hamiltonian_from_mode_ladders",
    "momentum",
    "momentum_from_mode_ladders",
    "interior_indices",
    "full_commutator_reference",
    "AlgebraReport",
    "verify_algebra",
    "algebra_reports_csv",
]

DEFAULT_ALGEBRA_TOL = 1e-12


def fock_lowering(nmax: int) -> np.ndarray:
    """(N+1) x (N+1) lowering matrix with <n-1|a|n> = sqrt(n)."""
    a = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    for n in range(1, nmax + 1):
        a[n - 1, n] = np.sqrt(n)
    return a


def lift_over_atom(layout, field_part: np.ndarray) -> np.ndarray:
    """Extend a field-sector matrix or diagonal over the atom factor.

    With an atom the atom level is the slowest axis, so a matrix m becomes
    kron(1_2, m) and a diagonal d becomes (d, d); without one it is
    returned as is.  Works for any layout with a ``has_atom`` flag.
    """
    if not layout.has_atom:
        return field_part
    if field_part.ndim == 1:
        return np.tile(field_part, 2)
    f = field_part.shape[0]
    out = np.zeros((2 * f, 2 * f), dtype=complex)
    out[:f, :f] = out[f:, f:] = field_part
    return out


def sector_sum(layout: HilbertLayout, blocks: np.ndarray) -> np.ndarray:
    """Field-space matrix with blocks[k] on mode k's (nmax+1)-square diagonal block.

    This is a mode sum sum_k |k><k| (x) blocks[k], written in one strided
    update instead of M dense field_dim-square additions.  The blocks
    are added onto zeros, so every entry is what a running sum over the
    modes gives, down to the sign of zeros.
    """
    m, b = layout.n_modes, layout.fock_dim
    out = np.zeros((layout.field_dim,) * 2, dtype=complex)
    idx = np.arange(m)
    out.reshape(m, b, m, b)[idx, :, idx, :] += blocks
    return out


def ladder(layout: HilbertLayout) -> Operator:
    """Lowering operator on the shared Fock factor (identity on mode labels)."""
    b = layout.fock_dim
    blocks = np.broadcast_to(fock_lowering(layout.nmax), (layout.n_modes, b, b))
    return Operator(layout, lift_over_atom(layout, sector_sum(layout, blocks)))


def _sector_diagonal(layout: HilbertLayout, k: int, values) -> Operator:
    """Diagonal operator with ``values`` on mode k's sector (per n), zero elsewhere."""
    if not 0 <= k < layout.n_modes:
        raise ValueError(f"mode index {k} out of range [0, {layout.n_modes})")
    d = np.zeros(layout.field_dim)
    d[k * layout.fock_dim:(k + 1) * layout.fock_dim] = values
    return Operator.from_diagonal(layout, lift_over_atom(layout, d))


def mode_projector(layout: HilbertLayout, k: int) -> Operator:
    """Projector onto the frequency sector of mode k, identity on the Fock factor."""
    return _sector_diagonal(layout, k, 1.0)


def mode_annihilator(layout: HilbertLayout, k: int) -> Operator:
    """Sector projector |k><k| tensor the Fock lowering operator.

    The lowering block is written onto zeros at mode k's sector, once per
    atom level, which is the kron(|k><k|, a) lifted over the atom entry
    for entry.
    """
    if not 0 <= k < layout.n_modes:
        raise ValueError(f"mode index {k} out of range [0, {layout.n_modes})")
    b = layout.fock_dim
    a = np.zeros((layout.dimension,) * 2, dtype=complex)
    for lo in range(k * b, layout.dimension, layout.field_dim):
        a[lo:lo + b, lo:lo + b] = fock_lowering(layout.nmax)
    return Operator(layout, a)


def number_operator(layout: HilbertLayout, k: int) -> Operator:
    """a_k^dag a_k: photon number on mode k's sector, zero elsewhere."""
    return _sector_diagonal(layout, k, np.arange(layout.fock_dim))


def frequency_operator(layout: HilbertLayout) -> Operator:
    """Diagonal operator with eigenvalue omega_k on every |k, n> ket."""
    d = np.repeat(layout.omegas, layout.fock_dim)
    return Operator.from_diagonal(layout, lift_over_atom(layout, d))


def _spectral_field_diag(layout: HilbertLayout) -> np.ndarray:
    """Diagonal omega_k*(n + 1/2) from the closed-form spectrum."""
    halves = np.arange(layout.fock_dim) + 0.5
    return np.outer(layout.omegas, halves).ravel()


def hamiltonian(layout: HilbertLayout, config: FieldConfig | None = None) -> Operator:
    """Free Hamiltonian, diagonal with eigenvalues hbar*omega_k*(n + 1/2).

    Built directly from the spectrum, so the eigenvalues are exact on the
    truncated space (no top-rung droop).
    """
    if layout.has_atom:
        raise ValueError("free-field hamiltonian requires a layout without atom factor")
    hbar = (config or FieldConfig()).hbar
    return Operator.from_diagonal(layout, hbar * _spectral_field_diag(layout))


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
    return Operator.from_diagonal(layout, hbar * np.outer(layout.omegas, sym).ravel())


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
    dense mode annihilators gives.
    """
    if layout.has_atom:
        raise ValueError("free-field hamiltonian requires a layout without atom factor")
    hbar = (config or FieldConfig()).hbar
    scale = 0.5 * hbar * layout.omegas
    return Operator.from_diagonal(
        layout, np.outer(scale, _ladder_symmetric_diag(layout.nmax)).ravel())


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
    comps = []
    for i in range(3):
        d = np.outer(layout.kappas[:, i], halves).ravel()
        comps.append(Operator.from_diagonal(layout, hbar * lift_over_atom(layout, d)))
    return tuple(comps)


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
    comps = []
    for i in range(3):
        d = np.outer(hbar * layout.kappas[:, i], sym).ravel()
        comps.append(Operator.from_diagonal(layout, lift_over_atom(layout, d)))
    return tuple(comps)


def _interior_mask(layout: HilbertLayout) -> np.ndarray:
    """Boolean mask over flat indices: photon number n <= nmax - 1."""
    return np.arange(layout.dimension) % layout.fock_dim < layout.nmax


def interior_indices(layout: HilbertLayout) -> np.ndarray:
    """Flat indices of all basis kets with photon number n <= nmax - 1."""
    return np.flatnonzero(_interior_mask(layout))


def full_commutator_reference(layout: HilbertLayout, k: int) -> Operator:
    """Exact full-space [a_k, a_k^dag]: the sector projector minus (N+1)|N><N|."""
    # diagonal is (1, ..., 1, -N) on the sector: identity minus (N+1) at n = N
    return _sector_diagonal(layout, k, np.r_[np.ones(layout.nmax), -layout.nmax])


@dataclass(frozen=True)
class AlgebraReport:
    """Outcome of one operator relation check."""

    relation: str
    k: int
    l: int
    subspace: str
    deviation: float
    passed: bool


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def _support(matrix: np.ndarray) -> np.ndarray:
    """Mask of the indices whose row or column holds a nonzero entry."""
    nonzero = matrix != 0
    return nonzero.any(axis=0) | nonzero.any(axis=1)


def _deviation_from_diagonal(block: np.ndarray, ref: np.ndarray, support: np.ndarray,
                             subspace: np.ndarray) -> float:
    """max |C - diag(ref)| over subspace x subspace, for a C that is zero
    outside support x support and equals ``block`` on it."""
    inside = subspace[support]
    diff = (block - np.diag(ref[support]))[np.ix_(inside, inside)]
    return max(_max_abs(diff), _max_abs(ref[subspace & ~support]))


def verify_algebra(layout: HilbertLayout, tol: float = DEFAULT_ALGEBRA_TOL,
                   annihilators: list[Operator] | None = None,
                   include_boundary: bool = False) -> list[AlgebraReport]:
    """Check the projector-valued commutation relation and both product rules.

    For every ordered mode pair (k, l), three relations are checked:

    * ``commutator``: [a_k, a_l^dag] = delta_kl P_k; on the interior
      subspace for k = l, on the full space (exact zero) otherwise.
    * ``product_aa``: a_k a_l = delta_kl a_k^2.
    * ``product_adad``: a_k^dag a_l^dag = delta_kl (a_k^dag)^2.

    With ``include_boundary`` an extra row per diagonal pair compares the
    full-space commutator against its exact truncation reference.
    ``annihilators`` may inject precomputed (or deliberately corrupted)
    mode operators; by default they are built from the layout.

    Each pair is checked on the union of the two operators' supports (the
    indices whose row or column holds a nonzero entry).  Outside it both
    operators vanish, so every product there is an exact zero and every
    product inside equals the full-space one entry for entry; the zeros
    are proved from the operators passed in, so an operator that leaks out
    of its sector still fails.  The cost is O(M^2) small blocks instead of
    dense D x D products.  Annihilators with non-finite entries are
    refused with ValueError (a full-space product would spread them as NaN
    through 0 * inf).
    """
    m_count = layout.n_modes
    if annihilators is None:
        annihilators = [mode_annihilator(layout, k) for k in range(m_count)]
    if len(annihilators) != m_count:
        raise ValueError("need one annihilator per mode")
    matrices = []
    for k, op in enumerate(annihilators):
        if op.layout != layout:
            raise ValueError(f"annihilator {k} lives on a different layout")
        if not np.all(np.isfinite(op.data)):
            raise ValueError(f"annihilator {k} has non-finite entries")
        matrices.append(op.toarray() if op.diagonal else op.data)
    supports = [_support(a) for a in matrices]
    interior = _interior_mask(layout)
    everywhere = np.ones(layout.dimension, dtype=bool)
    reports: list[AlgebraReport] = []
    for k in range(m_count):
        for l in range(m_count):
            support = supports[k] | supports[l]
            block = np.ix_(support, support)
            ak, al = matrices[k][block], matrices[l][block]
            comm = ak @ al.conj().T - al.conj().T @ ak
            if k == l:
                dev = _deviation_from_diagonal(comm, mode_projector(layout, k).diag(),
                                               support, interior)
                reports.append(AlgebraReport("commutator", k, l, "interior", dev, dev < tol))
                if include_boundary:
                    bdev = _deviation_from_diagonal(
                        comm, full_commutator_reference(layout, k).diag(), support, everywhere)
                    reports.append(AlgebraReport("commutator_boundary", k, l, "full",
                                                 bdev, bdev < tol))
            else:
                dev = _max_abs(comm)
                reports.append(AlgebraReport("commutator", k, l, "full", dev, dev < tol))
            prod = ak @ al
            if k == l:
                prod = prod - ak @ ak
            dev = _max_abs(prod)
            reports.append(AlgebraReport("product_aa", k, l, "full", dev, dev < tol))
            dprod = ak.conj().T @ al.conj().T
            if k == l:
                dprod = dprod - ak.conj().T @ ak.conj().T
            dev = _max_abs(dprod)
            reports.append(AlgebraReport("product_adad", k, l, "full", dev, dev < tol))
    return reports


def algebra_reports_csv(reports: list[AlgebraReport], path) -> None:
    """Write reports as CSV: relation, k, l, subspace, deviation, pass."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("relation,k,l,subspace,deviation,pass\n")
        for r in reports:
            flag = "true" if r.passed else "false"
            fh.write(f"{r.relation},{r.k},{r.l},{r.subspace},{r.deviation!r},{flag}\n")
