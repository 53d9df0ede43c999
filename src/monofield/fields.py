"""EM field operators in a quantization box, coherent states, and the
energy-momentum integral identities.

The polarization convention is the helicity basis e_s = (theta_hat +
i*s*phi_hat)/sqrt(2) built on the spherical frame of the propagation
direction, so s = +-1 are genuine circular polarizations satisfying
n_hat x e_s = -i*s*e_s.  For kappa along +-z the frame degenerates and
the fixed fallback theta_hat = x_hat, phi_hat = +-y_hat applies.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    fock_lowering,
    hamiltonian_from_mode_ladders,
    lift_over_atom,
    momentum_from_mode_ladders,
    sector_sum,
)
from .hilbert import (FieldConfig, HilbertLayout, ModeLabel, Operator, StateVector, expect,
                      load_mode_set, parse_complex, read_json)

__all__ = [
    "PolarizationBasis",
    "polarization",
    "polarization_basis",
    "CoherentSpec",
    "load_coherent_spec",
    "vector_potential",
    "electric_field",
    "magnetic_field",
    "coherent_state",
    "required_truncation",
    "field_average",
    "classical_formula",
    "FieldIdentityReport",
    "energy_identity",
]

_AXIS_EPS = 1e-14


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


def _mode_weights(layout: HilbertLayout, config: FieldConfig, t: float,
                  x: Sequence[float], kind: str) -> np.ndarray:
    """Per-mode complex 3-vector w_k such that F_i = sum_k (w_ki a_k + h.c.)."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (3,) or not (np.all(np.isfinite(xv)) and math.isfinite(t)):
        raise ValueError("field operators need finite t and a finite 3-vector x")
    weights = np.zeros((layout.n_modes, 3), dtype=complex)
    for k, m in enumerate(layout.modes):
        if m.abstract:
            raise ValueError(f"field operators require propagating modes; {m} is abstract")
        basis = polarization_basis(m.kappa)
        e = basis.vector(m.s)
        phase = np.exp(-1j * m.omega * t + 1j * np.dot(m.kappa, xv))
        if kind == "A":
            weights[k] = math.sqrt(config.hbar / (2.0 * m.omega * config.volume)) * phase * e
        elif kind == "E":
            weights[k] = 1j * math.sqrt(config.hbar * m.omega / (2.0 * config.volume)) * phase * e
        elif kind == "B":
            ne = np.cross(np.array(basis.n_hat), e)
            weights[k] = 1j * math.sqrt(config.hbar * m.omega / (2.0 * config.volume)) * phase * ne
        else:  # pragma: no cover
            raise ValueError(kind)
    return weights


def _assemble(layout: HilbertLayout, weights: np.ndarray) -> tuple[Operator, Operator, Operator]:
    """Components F_i = sum_k (w_ki a_k + conj(w_ki) a_k^dag), assembled per sector.

    Each mode contributes only its own diagonal block, w_ki a + conj(w_ki)
    a^dag on one truncated ladder, so the blocks are written in place
    instead of summing M dense mode annihilators.
    """
    a = fock_lowering(layout.nmax)
    ad = a.conj().T
    comps = []
    for i in range(3):
        w = weights[:, i, None, None]
        blocks = w * a + np.conj(w) * ad
        comps.append(Operator(layout, lift_over_atom(layout, sector_sum(layout, blocks))))
    return tuple(comps)


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


@dataclass(frozen=True)
class CoherentSpec:
    """Per-mode sector weight Phi_k and coherent amplitude alpha_k."""

    modes: tuple[ModeLabel, ...]
    weights: tuple[complex, ...]
    alphas: tuple[complex, ...]

    @classmethod
    def make(cls, modes: Sequence[ModeLabel], weights: Sequence[complex],
             alphas: Sequence[complex]) -> "CoherentSpec":
        modes = tuple(modes)
        if not (len(modes) == len(weights) == len(alphas)):
            raise ValueError("modes, weights and alphas must have equal length")
        w = np.asarray(weights, dtype=complex)
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            total = np.linalg.norm(w)
        if total == 0.0:
            raise ValueError("all sector weights are zero")
        if not np.isfinite(total):
            raise ValueError("the norm of the sector weights overflows")
        return cls(modes, tuple(w / total), tuple(complex(a) for a in alphas))

    @classmethod
    def parse(cls, modes: Sequence[ModeLabel], doc) -> "CoherentSpec":
        """Spec from a document's "weights" and optional "alphas" (default 0) lists."""
        weights = _complex_list(doc, "weights", [])
        alphas = _complex_list(doc, "alphas", [0.0] * len(weights))
        return cls.make(modes, weights, alphas)

    @classmethod
    def vacuum(cls, modes: Sequence[ModeLabel],
               weights: Sequence[complex] | None = None) -> "CoherentSpec":
        modes = tuple(modes)
        if weights is None:
            weights = [1.0] * len(modes)
        return cls.make(modes, weights, [0.0] * len(modes))


def _complex_list(doc, key: str, default: list) -> list[complex]:
    values = doc.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key}: expected a list, got {values!r}")
    return [parse_complex(v, f"{key}[{i}]") for i, v in enumerate(values)]


def load_coherent_spec(source, config: FieldConfig | None = None) -> CoherentSpec:
    """Read a coherent spec from JSON (any :func:`read_json` source): modes
    plus weight/alpha lists, complex entries as [re, im] pairs or bare reals."""
    doc = read_json(source)
    unknown = set(doc) - {"modes", "weights", "alphas"}
    if unknown:
        raise ValueError(f"unknown keys in coherent spec: {sorted(unknown)}")
    return CoherentSpec.parse(load_mode_set(doc["modes"], config), doc)


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
    """:func:`_poisson_tail` for every mean in ``mu`` at once.

    The same left-to-right sum of the terms exp(-mu + n*log(mu) - lgamma(n+1)),
    taken with numpy's exp and log, so a tail may differ from the scalar one
    in the last bits.  A zero mean has tail 0.
    """
    n = np.arange(nmax + 1)
    log_factorial = np.array([math.lgamma(i + 1) for i in n])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.exp(-mu[:, None] + n * np.log(mu)[:, None] - log_factorial)
        kept = np.cumsum(terms, axis=1)[:, -1]
    return np.where(mu == 0.0, 0.0, np.maximum(0.0, 1.0 - kept))


def required_truncation(alpha: complex, tail_tol: float = 1e-10, cap: int = 10_000) -> int:
    """Smallest nmax whose truncated coherent state drops < tail_tol mass."""
    for n, kept in zip(range(cap + 1), _poisson_cdf(abs(alpha) ** 2)):
        if max(0.0, 1.0 - kept) < tail_tol:
            return n
    raise ValueError(f"no truncation below {cap} reaches tail mass {tail_tol}")


def coherent_state(layout: HilbertLayout, spec: CoherentSpec,
                   tail_tol: float = 1e-10) -> StateVector:
    """State sum_k Phi_k |k> |alpha_k> with renormalized truncated blocks.

    Rejects the request when any mode's Poisson tail beyond nmax exceeds
    ``tail_tol``, reporting the truncation that would suffice.
    """
    if layout.has_atom:
        raise ValueError("coherent_state builds field states; layout has an atom factor")
    if spec.modes != layout.modes:
        raise ValueError("coherent spec modes do not match the layout")
    alphas = np.array(spec.alphas, dtype=complex)
    with np.errstate(over="ignore"):
        magnitudes = np.abs(alphas)
        mu = magnitudes ** 2
    overflows = ~np.isfinite(mu)
    tails = _poisson_tails(np.where(overflows, 0.0, mu), layout.nmax)
    # each of the nmax+1 vector sum steps may round one ulp of 1 away from the
    # scalar sum, so a mode this close to the bound is decided by _poisson_tail,
    # the sum required_truncation reports from
    slack = (layout.nmax + 2) * np.finfo(float).eps
    for k in np.flatnonzero(overflows | (tails > tail_tol - slack)).tolist():
        if overflows[k]:
            raise ValueError(f"|alpha|={magnitudes[k]:.4g} on mode {k} is too large: "
                             "its mean photon number overflows")
        alpha = spec.alphas[k]
        tail = _poisson_tail(abs(alpha) ** 2, layout.nmax)
        if tail > tail_tol:
            need = required_truncation(alpha, tail_tol)
            raise ValueError(
                f"nmax={layout.nmax} too small for |alpha|={abs(alpha):.4g} on mode {k}: "
                f"tail mass {tail:.3e} > {tail_tol:.1e}; nmax >= {need} required"
            )
    # column n is alpha^n/sqrt(n!), one mode per row; the product is written
    # out in real arithmetic to round like a complex scalar product
    cols = np.empty((layout.n_modes, layout.fock_dim), dtype=complex)
    cols[:, 0] = 1.0
    step = np.empty(layout.n_modes, dtype=complex)
    for n in range(1, layout.fock_dim):
        p = cols[:, n - 1]
        step.real = p.real * alphas.real - p.imag * alphas.imag
        step.imag = p.real * alphas.imag + p.imag * alphas.real
        cols[:, n] = step / math.sqrt(n)
    # each row's norm summed like np.linalg.norm of that row
    norms = np.sqrt([c.real.dot(c.real) + c.imag.dot(c.imag) for c in cols])
    weights = np.array(spec.weights, dtype=complex)
    return StateVector(layout, (weights[:, None] * (cols / norms[:, None])).ravel())


# -- averages -----------------------------------------------------------

FieldBuilder = Callable[[HilbertLayout, FieldConfig, float, Sequence[float]],
                        tuple[Operator, Operator, Operator]]


def field_average(builder: FieldBuilder, state: StateVector, config: FieldConfig,
                  t: float, x: Sequence[float]) -> np.ndarray:
    """Real 3-vector of expectation values of a field's components."""
    ops = builder(state.layout, config, t, x)
    return np.array([expect(op, state).real for op in ops])


def classical_formula(spec: CoherentSpec, config: FieldConfig, t: float,
                      x: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The printed classical sums for <A>, <E>, <B>; oracle for field_average.

    Evaluates the mode sums directly from the spec, with no operators in
    sight, so it cross-checks the operator route independently.
    """
    xv = np.asarray(x, dtype=float)
    a_avg = np.zeros(3, dtype=complex)
    e_avg = np.zeros(3, dtype=complex)
    b_avg = np.zeros(3, dtype=complex)
    for m, w, alpha in zip(spec.modes, spec.weights, spec.alphas):
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


def _dot_square(ops: tuple[Operator, Operator, Operator]) -> np.ndarray:
    total = np.zeros_like(ops[0].toarray())
    for op in ops:
        m = op.toarray()
        total += m @ m
    return total


def _cross(a: tuple[Operator, ...], b: tuple[Operator, ...]) -> list[np.ndarray]:
    am = [op.toarray() for op in a]
    bm = [op.toarray() for op in b]
    return [am[1] @ bm[2] - am[2] @ bm[1],
            am[2] @ bm[0] - am[0] @ bm[2],
            am[0] @ bm[1] - am[1] @ bm[0]]


def energy_identity(layout: HilbertLayout, config: FieldConfig,
                    samples: Sequence[tuple[float, Sequence[float]]],
                    tol_energy: float = 1e-10,
                    tol_sample: float = 1e-12) -> FieldIdentityReport:
    """Verify H = (V/2) integral(E.E + B.B) and P = V integral(E x B).

    Because the integrand is (t, x)-independent, the integrals reduce to a
    factor V; the check builds E and B at each sample point and compares
    matrices.  Both Poynting orderings (literal E x B and the symmetrized
    half-difference) are evaluated and the better one is recorded.
    """
    if not samples:
        raise ValueError("need at least one (t, x) sample")
    h_ref = hamiltonian_from_mode_ladders(layout, config).toarray()
    p_ref = [op.toarray() for op in momentum_from_mode_ladders(layout, config)]
    e2_list, b2_list, literal_list, sym_list = [], [], [], []
    for t, x in samples:
        e_ops = electric_field(layout, config, t, x)
        b_ops = magnetic_field(layout, config, t, x)
        e2_list.append(_dot_square(e_ops))
        b2_list.append(_dot_square(b_ops))
        exb = _cross(e_ops, b_ops)
        bxe = _cross(b_ops, e_ops)
        literal_list.append(exb)
        sym_list.append([0.5 * (f - g) for f, g in zip(exb, bxe)])

    def pairwise(mats: list[np.ndarray]) -> float:
        dev = 0.0
        for i in range(1, len(mats)):
            dev = max(dev, float(np.max(np.abs(mats[i] - mats[0]))))
        return dev

    e2_dev = pairwise(e2_list)
    b2_dev = pairwise(b2_list)
    integrand_dev = pairwise([e2 + b2 for e2, b2 in zip(e2_list, b2_list)])
    energy_dev = max(
        float(np.max(np.abs(0.5 * config.volume * (e2 + b2) - h_ref)))
        for e2, b2 in zip(e2_list, b2_list)
    )

    def momentum_dev(cross_list: list[list[np.ndarray]]) -> float:
        dev = 0.0
        for comps in cross_list:
            for i in range(3):
                dev = max(dev, float(np.max(np.abs(config.volume * comps[i] - p_ref[i]))))
        return dev

    lit = momentum_dev(literal_list)
    sym = momentum_dev(sym_list)
    if abs(lit - sym) < 1e-15:
        winner = "tie (orderings coincide); symmetrized exported"
    else:
        winner = "literal" if lit < sym else "symmetrized"
    return FieldIdentityReport(
        n_samples=len(samples),
        e2_sample_dev=e2_dev,
        b2_sample_dev=b2_dev,
        integrand_sample_dev=integrand_dev,
        energy_dev=energy_dev,
        momentum_dev_literal=lit,
        momentum_dev_symmetrized=sym,
        ordering_winner=winner,
        tol_energy=tol_energy,
        tol_sample=tol_sample,
    )
