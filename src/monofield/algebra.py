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
from itertools import groupby

import numpy as np

from .hilbert import FieldConfig, HilbertLayout, Operator, output_file

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
# verify_algebra stacks the annihilators' block stacks, and multiplies its
# block pairs, in chunks of about this many bytes
ALGEBRA_BLOCK_BYTES = 1 << 18


def fock_lowering(nmax: int) -> np.ndarray:
    """(N+1) x (N+1) lowering matrix with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, nmax + 1)), 1).astype(complex)


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

    By default the blocks are :func:`ladder`'s (M, s, s) stack, block k owned
    by a_k: :func:`mode_annihilator` is that block on mode k and exact zeros
    elsewhere, so nothing is built or scanned.  Injected ``annihilators``
    (precomputed or deliberately corrupted) are taken in k order and their
    block stacks (a diagonal operator as diagonal blocks) stacked into
    chunks of about :data:`ALGEBRA_BLOCK_BYTES`; each chunk gets one
    finiteness and one nonzero-block reduction, and keeps of each operator
    its own mode's block and every other nonzero one.  Non-finite entries
    are refused with ValueError naming the first such annihilator (a
    full-space product would spread them as NaN through 0 * inf), and an
    operator of another layout only after those before it passed.

    Products are blockwise: a relation between a_k and a_l sums products
    of their blocks on each mode, so every ordered pair of kept blocks on
    one mode is multiplied, each block with itself included (the self pairs
    make up the pairs (k, k)), as one stack in chunks of the same byte
    budget.  Each pair's deviations go into the (k, l) cell of its blocks'
    owners by a maximum, exact in any order.  That agrees with the
    full-space product up to how its terms are fused (bit for bit for the
    ladders); a cross pair with no nonzero block on a common mode keeps the
    table's exact zeros, and overflowing products give NaN as the full-space ones do.
    """
    if annihilators is None:
        blocks, kept = ladder(layout).as_blocks(), np.eye(layout.n_modes, dtype=bool)
    else:
        blocks, kept = _kept_blocks(layout, annihilators)
    owner, modes = np.nonzero(kept)  # of each kept block, in k order
    left, right = _sector_pairs(modes)
    # the interior kets (n <= nmax - 1) of a block, in its (atom, n) order
    inner = np.arange(blocks.shape[-1]) % layout.fock_dim < layout.nmax
    deviations = np.zeros((*kept.shape, len(RELATIONS)))
    np.maximum.at(deviations, (owner[left], owner[right]),
                  _pair_maxima(blocks, left, right, inner, modes == owner))
    return AlgebraTable(tol, deviations)


def _kept_blocks(layout: HilbertLayout,
                 annihilators: list[Operator]) -> tuple[np.ndarray, np.ndarray]:
    """Injected annihilators' kept blocks in (k, mode) order, and the (M, M) mask
    ``kept[k, j]``: a_k's block on mode j is kept, being nonzero or a_k's own."""
    m_count, size = layout.n_modes, layout.block_shape[-1]
    if len(annihilators) != m_count:
        raise ValueError("need one annihilator per mode")
    per_chunk = max(1, ALGEBRA_BLOCK_BYTES // (16 * m_count * size * size))
    kept = np.eye(m_count, dtype=bool)
    blocks = []
    for first in range(0, m_count, per_chunk):
        stacks = []
        for k in range(first, min(first + per_chunk, m_count)):
            op = annihilators[k]
            if op.layout != layout:
                if stacks:  # the operators before k are refused first
                    _finite_chunk(stacks, first)
                raise ValueError(f"annihilator {k} lives on a different layout")
            stacks.append(np.ascontiguousarray(op.as_blocks()))
        chunk = _finite_chunk(stacks, first)
        rows = kept[first:first + len(stacks)]
        rows |= chunk.view(float).reshape(len(stacks), m_count, -1).any(axis=2)
        blocks.append(chunk[rows])
    return np.concatenate(blocks), kept


def _finite_chunk(stacks: list[np.ndarray], first: int) -> np.ndarray:
    """The block stacks of annihilators first, first+1, ... as one
    (c, M, s, s) array (a view of the one stack when c = 1), after one
    finiteness reduction; the first with a non-finite entry is refused."""
    chunk = stacks[0][None] if len(stacks) == 1 else np.stack(stacks)
    values = chunk.view(float).reshape(len(stacks), -1)
    if not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values).all(axis=1)))
        raise ValueError(f"annihilator {first + bad} has non-finite entries")
    return chunk


def _sector_pairs(modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) indices of every ordered pair of kept blocks on
    the same mode, each block paired with itself included."""
    order = np.argsort(modes, kind="stable")
    ranked = modes[order]
    start = np.searchsorted(ranked, ranked)
    count = np.searchsorted(ranked, ranked, side="right") - start
    left = np.repeat(order, count)
    # block order[p] meets ranked positions start[p], ..., start[p] + count[p] - 1
    shift = np.repeat(start - np.cumsum(count) + count, count)
    return left, order[shift + np.arange(len(left))]


def _pair_maxima(blocks: np.ndarray, left: np.ndarray, right: np.ndarray,
                 inner: np.ndarray, own: np.ndarray) -> np.ndarray:
    """The (n, 3) largest moduli of the ``RELATIONS`` deviations on the
    block pairs (blocks[left[i]], blocks[right[i]]), multiplied as stacks
    of about :data:`ALGEBRA_BLOCK_BYTES`.  A self pair (left is right), a
    block of a pair (k, k), subtracts P_k where ``own`` marks a_k's own
    block and reads its commutator on the ``inner`` kets; its products
    subtract themselves (a_k^2, (a_k^dag)^2), leaving 0, or NaN on overflow."""
    maxima = np.empty((len(left), len(RELATIONS)))
    eye = np.eye(blocks.shape[-1])
    outside = ~(inner[:, None] & inner)
    step = max(1, ALGEBRA_BLOCK_BYTES // blocks[0].nbytes)
    for first in range(0, len(left), step):
        part = slice(first, first + step)
        a, b = blocks[left[part]], blocks[right[part]]
        ad, bd = a.conj().swapaxes(1, 2), b.conj().swapaxes(1, 2)
        comm, prod, dprod = a @ bd - bd @ a, a @ b, ad @ bd
        same = (left[part] == right[part])[:, None, None]
        np.subtract(comm, eye, out=comm, where=same & own[left[part], None, None])
        np.copyto(comm, 0.0, where=same & outside)
        np.subtract(prod, prod, out=prod, where=same)
        np.subtract(dprod, dprod, out=dprod, where=same)
        for r, x in enumerate((comm, prod, dprod)):
            maxima[part, r] = np.abs(x).max(axis=(1, 2))
    return maxima


def algebra_reports_csv(table: AlgebraTable, path) -> None:
    """Write the table as CSV: relation, k, l, subspace, deviation, pass.

    One row per (k, l, relation) in that order.  The diagonal commutator's
    subspace is ``interior``, every other row's ``full``; a deviation is
    its shortest round-trip ``repr``.  The text of every l's three zero
    rows (``0.0``, for a zero of either sign) is split once where each row's
    ``,k,`` goes; per k, the pieces of the diagonal and of every nonzero cross
    pair (one ``np.nonzero`` finds them) are formatted, and all are joined on
    ``,k,``: many times faster than the CLI's columnar ``_write_csv``.
    """
    m_count = len(table.deviations)
    zero = f",full,0.0,{_VERDICTS[0.0 < table.tol]}\n"
    # piece 3l + 1 + r: the tail of (l, RELATIONS[r])'s row, then the next row's name
    pieces = "".join(f"{r}\0{l}{zero}" for l in range(m_count) for r in RELATIONS).split("\0")
    comm, aa, adad = np.moveaxis(table.deviations != 0, 2, 0)
    ks, ls = np.nonzero(comm | aa | adad | np.eye(m_count, dtype=bool))
    devs = table.deviations[ks, ls]  # the rows that are formatted
    cells = zip(ks.tolist(), ls.tolist(), devs.tolist(), (devs < table.tol).tolist())
    with output_file(path) as fh:
        fh.write("relation,k,l,subspace,deviation,pass\n")
        for k, row in groupby(cells, key=lambda cell: cell[0]):
            filled = pieces.copy()
            for _, l, dev, verdict in row:
                subspaces = ("interior" if l == k else "full", "full", "full")
                for i, subspace, d, v in zip(range(3 * l + 1, 3 * l + 4), subspaces, dev, verdict):
                    filled[i] = f"{l},{subspace},{d!r},{_VERDICTS[v]}\n" \
                        + pieces[i].partition("\n")[2]
            fh.write(f",{k},".join(filled))
