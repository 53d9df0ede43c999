"""EM field operators in a quantization box, coherent states, and the
energy-momentum integral identities.

The polarization convention is the helicity basis e_s = (theta_hat +
i*s*phi_hat)/sqrt(2) built on the spherical frame of the propagation
direction, so s = +-1 are genuine circular polarizations satisfying
n_hat x e_s = -i*s*e_s.  For kappa along +-z the frame degenerates and
the fixed fallback theta_hat = x_hat, phi_hat = +-y_hat applies.

:func:`polarization_vectors` is the one per-mode table of these vectors,
built once per mode tuple: the field weights here and the atom couplings
of :mod:`monofield.emission` read it, with the frequencies and
wavevectors the layout caches.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import fock_lowering, hamiltonian_from_mode_ladders, momentum_from_mode_ladders
from .hilbert import (FieldConfig, HilbertLayout, ModeLabel, Operator, StateError, StateVector,
                      expect, parse_complex_list, row_norms, unit_rows)

__all__ = [
    "PolarizationBasis",
    "polarization",
    "polarization_basis",
    "polarization_vectors",
    "CoherentBatch",
    "StateError",
    "read_states",
    "vector_potential",
    "electric_field",
    "magnetic_field",
    "coherent_state",
    "coherent_rows",
    "required_truncation",
    "field_average",
    "field_averages",
    "classical_formula",
    "FieldIdentityReport",
    "energy_identity",
]

_AXIS_EPS = 1e-14
# field_averages builds one field component's block stack (16*D*A*b bytes per
# grid point), and vacuum-energy its states, in chunks of about this many bytes
STATE_BLOCK_BYTES = 1 << 18
# energy_identity's bounds: on the energy and momentum deviations, and on the
# spread of the integrand E.E + B.B over the samples
TOL_ENERGY = 1e-10
TOL_SAMPLE = 1e-12


@dataclass(frozen=True)
class PolarizationBasis:
    """Transverse helicity pair (e_plus, e_minus) for one propagation direction."""

    n_hat: tuple[float, float, float]
    e_plus: tuple[complex, complex, complex]
    e_minus: tuple[complex, complex, complex]

    def vector(self, s: int) -> np.ndarray:
        if s == +1:
            return np.array(self.e_plus)
        if s == -1:
            return np.array(self.e_minus)
        raise ValueError(f"polarization index must be +1 or -1, got {s}")


def polarization_basis(kappa: Sequence[float]) -> PolarizationBasis:
    """The helicity pair of wavevector ``kappa``."""
    kv = np.asarray(kappa, dtype=float)
    norm = np.linalg.norm(kv)
    if norm == 0.0:
        raise ValueError("polarization undefined for zero wavevector")
    n_hat = kv / norm
    rho = math.hypot(n_hat[0], n_hat[1])
    if rho < _AXIS_EPS:
        # kappa (anti)parallel to z: fixed frame theta_hat = x, phi_hat = sign(kz)*y
        sign = 1.0 if n_hat[2] > 0 else -1.0
        theta_hat = np.array([1.0, 0.0, 0.0])
        phi_hat = np.array([0.0, sign, 0.0])
    else:
        cos_t, sin_t = n_hat[2], rho
        cos_p, sin_p = n_hat[0] / rho, n_hat[1] / rho
        theta_hat = np.array([cos_t * cos_p, cos_t * sin_p, -sin_t])
        phi_hat = np.array([-sin_p, cos_p, 0.0])
    e_plus = (theta_hat + 1j * phi_hat) / math.sqrt(2.0)
    e_minus = (theta_hat - 1j * phi_hat) / math.sqrt(2.0)
    return PolarizationBasis(tuple(n_hat), tuple(e_plus), tuple(e_minus))


def polarization(kappa: Sequence[float], s: int) -> np.ndarray:
    """Complex unit polarization vector e_s for wavevector kappa."""
    return polarization_basis(kappa).vector(s)


# -- field operator assembly --------------------------------------------


@functools.lru_cache(maxsize=16)
def _polarization_table(modes: tuple[ModeLabel, ...], signs: tuple[float, ...]) -> np.ndarray:
    for m in modes:
        if m.abstract:
            raise ValueError(f"field operators require propagating modes; {m} is abstract")
    bases = [polarization_basis(m.kappa) for m in modes]
    e = np.array([basis.vector(m.s) for basis, m in zip(bases, modes)])
    vectors = np.stack([e, e, np.cross(np.array([basis.n_hat for basis in bases]), e)])
    vectors.setflags(write=False)
    return vectors


def polarization_vectors(modes: tuple[ModeLabel, ...]) -> np.ndarray:
    """The read-only (3, M, 3) polarization vectors of A, E and B of every
    mode: e_s, e_s and n_hat x e_s.  Built once per mode tuple, so it is
    the one source of the per-mode polarizations of the field weights and
    the atom couplings; an abstract mode is refused.  The cache key also
    holds the sign of each wavevector component, as -0.0 == 0.0 but their
    tables differ in the sign bits of their zeros."""
    return _polarization_table(modes, tuple(math.copysign(1.0, x) for m in modes for x in m.kappa))


polarization_vectors.cache_clear = _polarization_table.cache_clear


def _grid(t, x) -> tuple[np.ndarray, np.ndarray]:
    """P times and (P, 3) points as float arrays; a misshapen or non-finite grid is refused."""
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    if x.shape != (*t.shape, 3) or t.ndim != 1 or not np.isfinite(np.append(t, x)).all():
        raise ValueError("field operators need finite t and a finite 3-vector x")
    return t, x


def _grid_weights(layout: HilbertLayout, config: FieldConfig, t, x) -> np.ndarray:
    """(P, 3, M, 3) complex weights w[p, f, k] such that field f of "AEB" at
    (t[p], x[p]) is F_i = sum_k (w[p, f, k, i] a_k + h.c.), for P times ``t``
    and (P, 3) points ``x``.

    Only the phases depend on (t, x); the rest comes from the layout's
    frequencies and wavevectors and one lookup of the cached
    :func:`polarization_vectors`.  Each weight is amp * phase * e in that
    order, with kappa . x taken by ``np.vecdot``, so it is bit for bit the
    per-mode scalar product of those factors.  :func:`_grid` checks the grid;
    the first point where the phase omega*t - kappa.x of a mode is out of
    the float range is refused with a :class:`StateError` of its index.
    """
    t, x = _grid(t, x)
    vectors = polarization_vectors(layout.modes)
    omega = layout.omegas
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        angle = -1j * omega * t[:, None] + 1j * np.vecdot(layout.kappas, x[:, None])
    finite = np.isfinite(angle).all(axis=1)
    if not finite.all():
        raise StateError(int(np.argmin(finite)),
                         "the phase omega*t - kappa.x of a mode is out of the float range")
    phase = np.exp(angle)
    amp = np.empty((3, layout.n_modes), dtype=complex)
    amp[0] = np.sqrt(config.hbar / (2.0 * omega * config.volume))
    amp[1:] = 1j * np.sqrt(config.hbar * omega / (2.0 * config.volume))
    return (amp * phase[:, None])[..., None] * vectors


def _mode_weights(layout: HilbertLayout, config: FieldConfig, t: float,
                  x: Sequence[float], kind: str) -> np.ndarray:
    """Per-mode complex 3-vector w_k such that field ``kind`` ("A", "E" or
    "B") is F_i = sum_k (w_ki a_k + h.c.): the one-point case of
    :func:`_grid_weights`."""
    return _grid_weights(layout, config, [t], [x])[0, "AEB".index(kind)]


def _field_blocks(layout: HilbertLayout, weights: np.ndarray) -> np.ndarray:
    """The (..., M, A*b, A*b) mode blocks w_k a + conj(w_k) a^dag, on every atom
    level, of each (..., M) row of weights: one field component's block stack.

    Entry (i, j) is w*a[i, j] + conj(w)*a^dag[i, j].  Off the two bands where a
    or a^dag is nonzero, every a[i, j] is 0+0j and every a^dag[i, j] is 0-0j,
    so those entries are one value per weight, signed zeros included.
    """
    a = fock_lowering(layout.nmax)
    ad = a.conj().T
    w = weights[..., None]
    cw = np.conj(w)
    blocks = np.empty((*weights.shape, layout.fock_dim, layout.fock_dim), dtype=complex)
    blocks[...] = (w * a[0, 0] + cw * ad[0, 0])[..., None]
    n = np.arange(1, layout.fock_dim)
    for i, j in ((n - 1, n), (n, n - 1)):
        blocks[..., i, j] = w * a[i, j] + cw * ad[i, j]
    return layout.on_each_level(blocks)


def _assemble(layout: HilbertLayout, weights: np.ndarray) -> tuple[Operator, Operator, Operator]:
    """Components F_i = sum_k (w_ki a_k + conj(w_ki) a_k^dag) as block operators.

    Each mode contributes only its own block, w_ki a + conj(w_ki) a^dag on
    one truncated ladder, so the sum over modes is the stack of those blocks.
    """
    return tuple(Operator(layout, _field_blocks(layout, w)) for w in weights.T)


def vector_potential(layout: HilbertLayout, config: FieldConfig, t: float,
                     x: Sequence[float]) -> tuple[Operator, Operator, Operator]:
    """Three Hermitian components of the vector potential at (t, x)."""
    return _assemble(layout, _mode_weights(layout, config, t, x, "A"))


def electric_field(layout: HilbertLayout, config: FieldConfig, t: float,
                   x: Sequence[float]) -> tuple[Operator, Operator, Operator]:
    """Three Hermitian components of the electric field at (t, x)."""
    return _assemble(layout, _mode_weights(layout, config, t, x, "E"))


def magnetic_field(layout: HilbertLayout, config: FieldConfig, t: float,
                   x: Sequence[float]) -> tuple[Operator, Operator, Operator]:
    """Three Hermitian components of the magnetic field at (t, x)."""
    return _assemble(layout, _mode_weights(layout, config, t, x, "B"))


# -- coherent superpositions --------------------------------------------


@dataclass(frozen=True, eq=False)
class CoherentBatch:
    """S coherent superpositions sum_k Phi_k |k> |alpha_k> on one mode tuple:
    row s of the read-only (S, M) ``weights`` and ``alphas`` arrays holds the
    sector weights Phi and amplitudes alpha of state s.  One state is a
    one-row batch."""

    modes: tuple[ModeLabel, ...]
    weights: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        shape = (len(self.weights), len(self.modes))
        if not self.weights.shape == self.alphas.shape == shape:
            raise ValueError("modes, weights and alphas must have equal length")
        self.weights.setflags(write=False)
        self.alphas.setflags(write=False)

    @classmethod
    def make(cls, modes: Sequence[ModeLabel], weights, alphas) -> "CoherentBatch":
        """Batch from (S, M) weight and alpha rows; every weight row is
        normalised to unit 2-norm."""
        weights = np.asarray(weights, dtype=complex)
        return cls(tuple(modes), unit_rows(weights), np.asarray(alphas, dtype=complex))

    def __len__(self) -> int:
        return len(self.weights)

    def rows(self, start: int, stop: int) -> "CoherentBatch":
        """The batch of states ``start`` to ``stop`` (exclusive)."""
        return CoherentBatch(self.modes, self.weights[start:stop], self.alphas[start:stop])


def read_states(modes: Sequence[ModeLabel], entries: Sequence, where: str = "states[{}]",
                labelled: bool = True) -> tuple[CoherentBatch, tuple[str, ...]]:
    """A list of {"weights", "alphas"[, "label"]} documents as one batch,
    with each state's label (``state<i>`` when it has none).

    Complex entries are [re, im] pairs or bare reals; "alphas" defaults to
    zeros, and "label" is allowed only when ``labelled``.  One Python pass
    checks the shape of every entry, one :func:`parse_complex_list` call per
    key reads the values and one normalisation runs over the weight rows.  A
    refusal is a :class:`StateError` for the first bad state in list order,
    its message naming the state as ``where.format(index)``.
    """
    modes = tuple(modes)
    keys = {"weights", "alphas", "label"} if labelled else {"weights", "alphas"}
    defaults = {"weights": [], "alphas": [0.0] * len(modes)}
    name = where.format  # called only to refuse a state

    def read(entries: Sequence, first: int) -> tuple[CoherentBatch, tuple[str, ...]]:
        labels = []
        for i, entry in enumerate(entries, first):
            if not isinstance(entry, dict):
                raise StateError(i, f"{name(i)} must be an object")
            if not entry.keys() <= keys:
                raise StateError(i, f"unknown keys in {name(i)}: {sorted(set(entry) - keys)}")
            for key, default in defaults.items():
                value = entry.get(key, default)
                if not isinstance(value, (list, tuple)):
                    raise StateError(i, f"bad {name(i)}: {key}: expected a list, got {value!r}")
                if len(value) != len(modes):
                    raise StateError(i, f"bad {name(i)}: modes, weights and alphas must have "
                                        "equal length")
            labels.append(entry["label"] if "label" in entry else f"state{i}")
            if not isinstance(labels[-1], str):
                raise StateError(i, f"bad {name(i)}: label: expected a string, got {labels[-1]!r}")
        shape = (len(entries), len(modes))
        try:
            weights, alphas = (parse_complex_list([v for e in entries for v in e.get(k, d)], k)
                               .reshape(shape) for k, d in defaults.items())
            return CoherentBatch(modes, unit_rows(weights), alphas), tuple(labels)
        except ValueError as exc:  # shown only from a one-state read, of state ``first``
            raise StateError(first, f"bad {name(first)}: {exc}") from None

    try:
        return read(entries, 0)
    except StateError:  # the states one at a time, so that the first bad one is named
        for i, entry in enumerate(entries):
            read([entry], i)
        raise  # pragma: no cover


def _poisson_cdf(mu: float) -> Iterator[float]:
    """P(X <= n) for X ~ Poisson(mu), n = 0, 1, 2, ...

    One running left-to-right sum of the terms P(X = n), so the first n
    values cost O(n) together.
    """
    if mu == 0.0:
        yield from itertools.repeat(1.0)
    else:
        log_mu = math.log(mu)
        kept = 0.0
        for n in itertools.count():
            kept += math.exp(-mu + n * log_mu - math.lgamma(n + 1))
            yield kept


def _poisson_tail(mu: float, nmax: int) -> float:
    """P(X > nmax) for X ~ Poisson(mu); the neglected coherent tail mass."""
    return max(0.0, 1.0 - next(itertools.islice(_poisson_cdf(mu), nmax, None)))


def _poisson_tails(mu: np.ndarray, nmax: int) -> np.ndarray:
    """:func:`_poisson_tail` for every mean in the array ``mu`` at once.

    The same left-to-right sum of the terms exp(-mu + n*log(mu) - lgamma(n+1)),
    taken with numpy's exp and log, so a tail may differ from the scalar one
    in the last bits.  A zero mean has tail 0.
    """
    n = np.arange(nmax + 1)
    log_factorial = np.array([math.lgamma(i + 1) for i in n])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.exp(-mu[..., None] + n * np.log(mu)[..., None] - log_factorial)
        kept = np.cumsum(terms, axis=-1)[..., -1]
    return np.where(mu == 0.0, 0.0, np.maximum(0.0, 1.0 - kept))


def required_truncation(alpha: complex, tail_tol: float = 1e-10, cap: int = 10_000) -> int:
    """Smallest nmax whose truncated coherent state drops < tail_tol mass."""
    for n, kept in zip(range(cap + 1), _poisson_cdf(abs(alpha) ** 2)):
        if max(0.0, 1.0 - kept) < tail_tol:
            return n
    raise ValueError(f"no truncation below {cap} reaches tail mass {tail_tol}")


def coherent_state(layout: HilbertLayout, state: CoherentBatch,
                   tail_tol: float = 1e-10) -> StateVector:
    """State sum_k Phi_k |k> |alpha_k> of a one-row batch, with renormalized
    truncated blocks: the one-state case of :func:`coherent_rows`, whose
    checks it shares."""
    if len(state) != 1:
        raise ValueError(f"coherent_state builds one state, got a batch of {len(state)}")
    return StateVector(layout, coherent_rows(layout, state, tail_tol)[0])


def coherent_rows(layout: HilbertLayout, batch: CoherentBatch,
                  tail_tol: float = 1e-10) -> np.ndarray:
    """The (S, D) amplitudes of every state of ``batch``, one state per row.

    All S*M coherent columns run through one recurrence, so each row equals
    the amplitudes the same arithmetic gives for that state alone.  Rejects
    the request when any mode's Poisson tail beyond nmax exceeds
    ``tail_tol``, reporting the truncation that would suffice, with a
    :class:`StateError` for the first such state.
    """
    if layout.has_atom:
        raise ValueError("coherent_state builds field states; layout has an atom factor")
    if batch.modes != layout.modes:
        raise ValueError("coherent state modes do not match the layout")
    alphas = batch.alphas
    with np.errstate(over="ignore"):
        magnitudes = np.abs(alphas)
        mu = magnitudes ** 2
    overflows = ~np.isfinite(mu)
    tails = _poisson_tails(np.where(overflows, 0.0, mu), layout.nmax)
    # each of the nmax+1 vector sum steps may round one ulp of 1 away from the
    # scalar sum, so a mode this close to the bound is decided by _poisson_tail,
    # the sum required_truncation reports from
    slack = (layout.nmax + 2) * np.finfo(float).eps
    for s, k in np.argwhere(overflows | (tails > tail_tol - slack)).tolist():
        if overflows[s, k]:
            raise StateError(s, f"|alpha|={magnitudes[s, k]:.4g} on mode {k} is too large: "
                                "its mean photon number overflows")
        alpha = complex(alphas[s, k])
        tail = _poisson_tail(abs(alpha) ** 2, layout.nmax)
        if tail > tail_tol:
            try:
                need = required_truncation(alpha, tail_tol)
            except ValueError as exc:
                raise StateError(s, str(exc)) from None
            raise StateError(
                s, f"nmax={layout.nmax} too small for |alpha|={abs(alpha):.4g} on mode {k}: "
                   f"tail mass {tail:.3e} > {tail_tol:.1e}; nmax >= {need} required")
    rows = np.empty((len(batch), layout.dimension), dtype=complex)
    # column n is alpha^n/sqrt(n!), one (state, mode) per entry of the first
    # two axes; the product is written out in real arithmetic to round like a
    # complex scalar product
    cols = layout.view(rows)[:, 0]
    cols[..., 0] = 1.0
    step = np.empty(alphas.shape, dtype=complex)
    for n in range(1, layout.fock_dim):
        p = cols[..., n - 1]
        step.real = p.real * alphas.real - p.imag * alphas.imag
        step.imag = p.real * alphas.imag + p.imag * alphas.real
        cols[..., n] = step / math.sqrt(n)
    np.divide(cols, row_norms(cols)[..., None], out=cols)
    np.multiply(batch.weights[..., None], cols, out=cols)
    return rows


# -- averages -----------------------------------------------------------

FieldBuilder = Callable[[HilbertLayout, FieldConfig, float, Sequence[float]],
                        tuple[Operator, Operator, Operator]]


def field_average(builder: FieldBuilder, state: StateVector, config: FieldConfig,
                  t: float, x: Sequence[float]) -> np.ndarray:
    """Real 3-vector of expectation values of a field's components."""
    ops = builder(state.layout, config, t, x)
    return np.array([expect(op, state).real for op in ops])


def field_averages(state: StateVector, config: FieldConfig, t, x) -> np.ndarray:
    """The (P, 3, 3) averages <A>, <E>, <B> (axis 1) at the P points
    (t[p], x[p]) of ``t`` and the (P, 3) array ``x``.

    Entry [p, f] is :func:`field_average` of field f at (t[p], x[p]), bit for
    bit.  Per chunk of :data:`STATE_BLOCK_BYTES` of blocks: one
    :func:`_grid_weights` table, then per field and component one
    (P, M, A*b, A*b) stack of the blocks :func:`_assemble` builds, one stacked
    block matvec against the state's :meth:`~HilbertLayout.blocks_of` rows and
    one ``np.vecdot`` with the state.  The first grid point whose phase
    overflows is refused with a :class:`StateError` of its index in the grid.
    """
    layout = state.layout
    psi = state.amplitudes
    rows = layout.blocks_of(psi)[..., None]
    t, x = _grid(t, x)
    size = max(1, STATE_BLOCK_BYTES // (16 * layout.dimension * layout.block_shape[-1]))
    out = np.empty((len(t), 3, 3))
    for start in range(0, len(t), size):
        chunk = slice(start, start + size)
        try:
            weights = _grid_weights(layout, config, t[chunk], x[chunk])
        except StateError as exc:
            raise StateError(start + exc.index, str(exc)) from None
        for f, i in itertools.product(range(3), repeat=2):
            applied = _field_blocks(layout, weights[:, f, :, i]) @ rows
            out[chunk, f, i] = np.vecdot(psi, layout.from_blocks(applied[..., 0])).real
    return out


def classical_formula(state: CoherentBatch, config: FieldConfig, t: float,
                      x: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The printed classical sums for <A>, <E>, <B>; oracle for field_average.

    Evaluates the mode sums directly from row 0 of the batch, with no
    operators in sight, so it cross-checks the operator route independently.
    """
    xv = np.asarray(x, dtype=float)
    a_avg = np.zeros(3, dtype=complex)
    e_avg = np.zeros(3, dtype=complex)
    b_avg = np.zeros(3, dtype=complex)
    for m, w, alpha in zip(state.modes, state.weights[0], state.alphas[0].tolist()):
        if m.abstract:
            raise ValueError(f"classical fields require propagating modes; {m} is abstract")
        basis = polarization_basis(m.kappa)
        e = basis.vector(m.s)
        n_hat = np.array(basis.n_hat)
        p = abs(w) ** 2
        phase = np.exp(-1j * (m.omega * t - np.dot(m.kappa, xv)))
        za = alpha * phase * e
        a_amp = math.sqrt(config.hbar / (2.0 * m.omega * config.volume))
        eb_amp = math.sqrt(config.hbar * m.omega / (2.0 * config.volume))
        a_avg += p * a_amp * (za + np.conj(za))
        e_avg += p * eb_amp * 1j * (za - np.conj(za))
        zb = alpha * phase * np.cross(n_hat, e)
        b_avg += p * eb_amp * 1j * (zb - np.conj(zb))
    return a_avg.real, e_avg.real, b_avg.real


# -- energy-momentum integral identities ---------------------------------


@dataclass(frozen=True)
class FieldIdentityReport:
    """Deviations of the box-integral identities, checked as matrix equations.

    The comparison Hamiltonian/momentum are the mode-ladder forms: the
    field products are built from the same truncated ladders, so the
    identities hold to rounding on the whole truncated space (the
    spectral forms differ only in the known top-rung artifact).
    """

    n_samples: int
    e2_sample_dev: float
    b2_sample_dev: float
    integrand_sample_dev: float
    energy_dev: float
    momentum_dev_literal: float
    momentum_dev_symmetrized: float
    ordering_winner: str
    tol_energy: float
    tol_sample: float

    @property
    def passed(self) -> bool:
        return (
            self.integrand_sample_dev < self.tol_sample
            and self.energy_dev < self.tol_energy
            and min(self.momentum_dev_literal, self.momentum_dev_symmetrized)
            < self.tol_energy
        )


def energy_identity(layout: HilbertLayout, config: FieldConfig,
                    samples: Sequence[tuple[float, Sequence[float]]]) -> FieldIdentityReport:
    """Verify H = (V/2) integral(E.E + B.B) and P = V integral(E x B).

    Because the integrand is (t, x)-independent, the integrals reduce to a
    factor V.  E and B at all P samples come from one :func:`_grid_weights`
    table as (P, 3, M, b, b) block stacks, and the products are stacked
    block matmuls, compared block by block with the mode-ladder H and P
    diagonals.  Both Poynting orderings (literal E x B and the symmetrized
    half-difference) are evaluated and the better one is recorded.
    """
    if not samples:
        raise ValueError("need at least one (t, x) sample")
    h_ref = hamiltonian_from_mode_ladders(layout, config)
    p_ref = momentum_from_mode_ladders(layout, config)
    t, x = zip(*samples)
    weights = _grid_weights(layout, config, t, x)
    e, b = (_field_blocks(layout, np.moveaxis(weights[:, f], -1, 1)) for f in (1, 2))

    def dot_square(u: np.ndarray) -> np.ndarray:
        squares = u @ u
        return squares[:, 0] + squares[:, 1] + squares[:, 2]

    def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # component i is u_j v_k - u_k v_j, (i, j, k) cyclic
        j, k = [1, 2, 0], [2, 0, 1]
        return u[:, j] @ v[:, k] - u[:, k] @ v[:, j]

    def spread(stack: np.ndarray) -> float:
        return float(np.abs(stack[1:] - stack[0]).max(initial=0.0))

    def deviation(stack: np.ndarray, reference) -> float:
        # the largest entry of the stack minus the diagonal reference operators
        i = np.arange(stack.shape[-1])
        stack[..., i, i] -= layout.blocks_of(reference)
        return float(np.abs(stack).max())

    e2, b2 = dot_square(e), dot_square(b)
    integrand = e2 + b2
    exb = cross(e, b)
    p_diagonals = np.array([p.data for p in p_ref])
    lit = deviation(config.volume * exb, p_diagonals)
    sym = deviation(config.volume * (0.5 * (exb - cross(b, e))), p_diagonals)
    if abs(lit - sym) < 1e-15:
        winner = "tie (orderings coincide); symmetrized exported"
    else:
        winner = "literal" if lit < sym else "symmetrized"
    return FieldIdentityReport(
        n_samples=len(samples),
        e2_sample_dev=spread(e2),
        b2_sample_dev=spread(b2),
        integrand_sample_dev=spread(integrand),
        energy_dev=deviation(0.5 * config.volume * integrand, h_ref.data),
        momentum_dev_literal=lit,
        momentum_dev_symmetrized=sym,
        ordering_winner=winner,
        tol_energy=TOL_ENERGY,
        tol_sample=TOL_SAMPLE,
    )
