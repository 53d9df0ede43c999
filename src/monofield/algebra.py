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


def number_operator(layout: HilbertLayout, k: int) -> Operator:
    """a_k^dag a_k: photon number on mode k's sector, zero elsewhere."""
    return _sector_diagonal(layout, k, np.arange(layout.fock_dim))


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
    dense mode annihilators gives.
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


def _interior_mask(layout: HilbertLayout) -> np.ndarray:
    """Boolean mask over flat indices: photon number n <= nmax - 1."""
    return layout.flat(np.arange(layout.fock_dim) < layout.nmax)


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


def _pieces(op: Operator):
    """``op`` as (support, kets, blocks): ``op`` is the sum of blocks[i] on
    kets[i] x kets[i] over its nonzero mode blocks (a diagonal is a stack of
    1 x 1 blocks), and ``support`` masks those kets.  A dense operator gives
    (support, None, matrix), its support scanned from the matrix: the
    indices whose row or column holds a nonzero entry."""
    data = op.data
    if data.ndim == 2:
        nonzero = data != 0
        return nonzero.any(axis=0) | nonzero.any(axis=1), None, data
    if data.ndim == 1:
        kets = np.flatnonzero(data)[:, None]
        blocks = data[kets[:, 0], None, None]
    else:
        nonzero = np.any(data != 0, axis=(1, 2))
        kets = op.layout.blocks_of(np.arange(op.layout.dimension))[nonzero]
        blocks = data[nonzero]
    support = np.zeros(op.layout.dimension, dtype=bool)
    support[kets] = True
    return support, kets, blocks


def _on_support(pieces, support: np.ndarray) -> np.ndarray:
    """The matrix of a :func:`_pieces` result on the indices ``support`` masks."""
    _, kets, data = pieces
    if kets is None:
        return data[np.ix_(support, support)]
    rank = np.cumsum(support) - 1
    out = np.zeros((np.count_nonzero(support),) * 2, dtype=complex)
    at = rank[kets]
    out[at[:, :, None], at[:, None, :]] = data
    return out


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

    Each operator's support is the kets of its nonzero mode blocks, or for
    a dense operator the indices whose row or column holds a nonzero entry;
    outside it the operator vanishes.  A cross pair (k != l) whose supports
    are disjoint is decided from one support-overlap matrix: every term of
    its three products pairs an entry inside one support with an entry
    inside the other, so each is 0 * x with x finite and the rows report an
    exact 0.0 without a product.  The M diagonal pairs, and any cross pair
    whose supports overlap, are multiplied on the union of the two supports.
    The full-space product only adds exact zeros to those entries, so the
    two agree up to how the remaining terms are grouped and fused (bit for
    bit for the ladders, whose product entries are single terms).  So the
    zeros are proved from the operators passed in, and an operator that
    leaks out of its sector still fails.  What stays O(M^2) is writing the
    3 M^2 report rows.  Annihilators with non-finite entries are refused with
    ValueError (a full-space product would spread them as NaN through 0 * inf).
    """
    m_count = layout.n_modes
    if annihilators is not None and len(annihilators) != m_count:
        raise ValueError("need one annihilator per mode")
    pieces = []
    for k in range(m_count):
        # built one at a time, so only its nonzero blocks stay, not M full stacks
        op = mode_annihilator(layout, k) if annihilators is None else annihilators[k]
        if op.layout != layout:
            raise ValueError(f"annihilator {k} lives on a different layout")
        if not np.all(np.isfinite(op.data)):
            raise ValueError(f"annihilator {k} has non-finite entries")
        pieces.append(_pieces(op))
    supports = np.array([support for support, _, _ in pieces], dtype=float)
    overlap = (supports @ supports.T > 0).tolist()
    interior = _interior_mask(layout)
    everywhere = np.ones(layout.dimension, dtype=bool)
    zero_passed = 0.0 < tol
    reports: list[AlgebraReport] = []
    for k in range(m_count):
        for l in range(m_count):
            if k != l and not overlap[k][l]:
                reports += (AlgebraReport("commutator", k, l, "full", 0.0, zero_passed),
                            AlgebraReport("product_aa", k, l, "full", 0.0, zero_passed),
                            AlgebraReport("product_adad", k, l, "full", 0.0, zero_passed))
                continue
            support = pieces[k][0] | pieces[l][0]
            ak, al = _on_support(pieces[k], support), _on_support(pieces[l], support)
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
