"""Exact Schroedinger evolution of states and first-order Dyson integrals.

Evolution under a time-independent Hermitian generator H goes through its
:class:`Spectrum`: one eigendecomposition H = V diag(lambda) V^dag, after
which exp(-i*H*t/hbar) at any time t is V diag(exp(-i*lambda*t/hbar)) V^dag.
The storage kind of the generator (see :class:`Operator`) sets the cost:
a diagonal generator is its own eigenbasis, so its evolution is the phase
vector alone; a block generator is diagonalised by one batched ``eigh``
over its mode blocks, and V is a block operator.  Only states are evolved,
never operators.  Every step is one formula, :meth:`Spectrum.apply`, which
evolves a stack of states over the times, each row bit for bit a step alone.  The
emission convergence sweep needs no spectrum: it evolves the 2x2 RWA
doublets in closed form and refuses a phase with :func:`_phase_fault`'s line.

:func:`dyson_first_order` integrates the first-order Dyson term with
:mod:`monofield.quadrature`, ``scipy.integrate.quad_vec``'s adaptive
Gauss-Kronrod 21 rule written in numpy, bit for bit ``quad_vec``'s integral
and error estimate.  Each round evaluates H_I|psi0> at the nodes of all the
intervals it bisects in as few calls as :data:`DYSON_BLOCK_BYTES` of node
values allows, where ``quad_vec`` made one Python call per node.

:func:`matrix_exp` is the general Pade exponential; no evolution path
calls it.  scipy is imported only inside :func:`matrix_exp`
(``scipy.linalg``), so importing this module, and every command, loads
none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hilbert import Operator, StateVector, block_matvec

__all__ = [
    "resonance_kernel",
    "matrix_exp",
    "Spectrum",
    "spectrum",
    "evolve",
    "dyson_first_order",
]

HERMITICITY_TOL = 1e-10
_KERNEL_SERIES_CUTOFF = 1e-6
# a phase |lambda*t/hbar| this large keeps no digit below 2*pi
_PHASE_LIMIT = 1.0 / np.finfo(float).eps
# bytes of node values one group of quadrature rules holds, and so one call
# of a Dyson action returns
DYSON_BLOCK_BYTES = 1 << 20


def resonance_kernel(delta: float, t: float) -> complex:
    """(exp(-i*delta*t) - 1)/delta, the first-order transition kernel.

    Near resonance (|delta*t| < 1e-6) the quotient cancels
    catastrophically, so a 4-term series in z = -i*delta*t is used; its
    delta -> 0 limit is -i*t.
    """
    z = -1j * delta * t
    if abs(z) < _KERNEL_SERIES_CUTOFF:
        return -1j * t * (1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0)
    return (np.exp(z) - 1.0) / delta


def matrix_exp(a: Operator) -> Operator:
    """Elementwise-exact exponential for diagonal operators, Pade otherwise."""
    if not np.all(np.isfinite(a.data)):
        raise ValueError("matrix exponential of non-finite input")
    if a.diagonal:
        return Operator.from_diagonal(a.layout, np.exp(a.data))
    import scipy.linalg

    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is detected on the result and rejected below; a block
        # stack is exponentiated block by block
        result = scipy.linalg.expm(a.data)
    if not np.all(np.isfinite(result)):
        scale = a.max_abs()
        raise ValueError(
            f"matrix exponential overflowed (max input magnitude {scale:.3e}; "
            "rescale the generator)"
        )
    return Operator(a.layout, result)


def _phase_fault(phase: float) -> str | None:
    """``eigh`` cannot overflow, so a phase with no digit left below 2*pi is refused."""
    if phase < _PHASE_LIMIT:
        return None
    return (f"matrix exponential overflowed (largest phase |lambda*t/hbar| = {phase:.3e}, "
            f"limit {_PHASE_LIMIT:.3e}; rescale the generator or the time)")


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of one Hermitian generator, reused at every time.

    ``energies`` holds one real eigenvalue per basis ket and ``vectors``
    the orthonormal eigenvectors as the columns of an operator: eigenvalue
    i belongs to column i.  For a block generator, column i is an
    eigenvector of the block of ket i's mode, so ``vectors`` is a block
    operator.  ``vectors`` is None for a generator of the diagonal kind,
    whose eigenvalues are its diagonal in basis order.  A step is applied
    as the identity plus V diag(exp(-i*lambda*t/hbar) - 1) V^dag, so a
    short step is as accurate as it is small.
    """

    generator: Operator
    hbar: float
    energies: np.ndarray = field(repr=False)
    vectors: Operator | None = field(repr=False)
    largest: float = field(repr=False, init=False)  # max |lambda|

    def __post_init__(self):
        object.__setattr__(self, "largest", float(np.max(np.abs(self.energies))))

    def _angles(self, times) -> tuple[np.ndarray, np.ndarray]:
        """The angles at ``times`` and which have every phase 0; the first
        refused time raises; a refused step's angles are formed but unused."""
        times = np.asarray(times, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            phases = self.largest * np.abs(times) / self.hbar
            angles = -1j * self.energies * times[..., None] / self.hbar
        refused = ~(phases < _PHASE_LIMIT)
        if refused.any():
            raise ValueError(_phase_fault(phases[refused][0]))
        return angles, phases == 0.0

    def apply(self, amplitudes: np.ndarray, times) -> np.ndarray:
        """exp(-i*H*t/hbar) times (..., D) ``amplitudes`` at ``times``
        broadcast against their leading axes: the phases times them for a
        diagonal H, else them plus V diag(expm1(angles)) V^dag times them,
        so a short step is as accurate as it is small; a step whose every
        phase is 0 leaves them exactly."""
        angles, still = self._angles(times)
        if self.vectors is None:
            out = np.exp(angles) * amplitudes
        else:
            vectors = self.vectors.data
            adjoint = np.swapaxes(vectors.conj(), -1, -2)
            out = amplitudes + block_matvec(vectors, np.expm1(angles)
                                            * block_matvec(adjoint, amplitudes))
        return np.where(still[..., None], amplitudes, out)

    def trajectory(self, psi: StateVector, times) -> np.ndarray:
        """The (T, D) amplitudes of exp(-i*H*t/hbar)|psi> at the T ``times``."""
        if psi.layout != self.generator.layout:
            raise ValueError("layout mismatch between generator and state")
        return self.apply(psi.amplitudes, times)


def spectrum(h: Operator, hbar: float = 1.0) -> Spectrum:
    """The :class:`Spectrum` of a finite Hermitian generator ``h``; one
    batched ``eigh`` over the blocks of a block generator."""
    if not np.isfinite(h.data).all():
        raise ValueError("generator has non-finite entries")
    adjoint = h.data.conj() if h.diagonal else np.swapaxes(h.data.conj(), -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = float(np.abs(h.data - adjoint).max())
    if deviation > HERMITICITY_TOL:
        raise ValueError(f"generator is not Hermitian (deviation {deviation:.3e})")
    if h.diagonal:
        return Spectrum(h, float(hbar), h.data.real, None)
    energies, vectors = np.linalg.eigh(h.data)
    return Spectrum(h, float(hbar), h.layout.from_blocks(energies), Operator(h.layout, vectors))


def evolve(h: Operator, psi0: StateVector, t: float, hbar: float = 1.0) -> StateVector:
    """Schroedinger evolution exp(-i*H*t/hbar)|psi0>: the spectrum's
    :meth:`Spectrum.trajectory` at the one time ``t``."""
    return StateVector(psi0.layout, spectrum(h, hbar).trajectory(psi0, float(t)))


def dyson_first_order(action: Callable[[np.ndarray], np.ndarray], psi0: StateVector,
                      t: float, hbar: float = 1.0) -> StateVector:
    """|psi0> + (i*hbar)^-1 integral_0^t H_I(t')|psi0> dt' by adaptive quadrature.

    ``action`` takes a 1-D array of N times and returns the (N, D) values of
    H_I|psi0> at each of them, as the callable that
    :func:`monofield.emission.interaction_action` makes from psi0 and its
    :func:`~monofield.emission.mode_couplings` row does.  The integral is
    :func:`monofield.quadrature.adaptive_gk21`, bit for bit that of
    ``scipy.integrate.quad_vec`` on the one-time integrand H_I(t')|psi0>, and
    so is its error estimate.  Each round evaluates the nodes of every
    interval it bisects together, one call per group of at most
    :data:`DYSON_BLOCK_BYTES` of node values (at least one interval a group).
    The result is the raw first-order sum (not normalized).  Values of another
    shape are refused, as is quadrature that does not converge (with its error estimate).
    """
    from .quadrature import adaptive_gk21

    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")

    def integrand(times: np.ndarray) -> np.ndarray:
        values = action(times)
        if np.shape(values) != (len(times), psi0.layout.dimension):
            raise ValueError("layout mismatch")
        return values

    integral, err, converged = adaptive_gk21(integrand, t, DYSON_BLOCK_BYTES)
    if not converged:
        raise ValueError(f"quadrature did not converge (error estimate {err:.3e})")
    amps = psi0.amplitudes + integral / (1j * hbar)
    return StateVector(psi0.layout, amps)
