"""Exact time evolution, Heisenberg conjugation, and first-order Dyson integrals.

Evolution under a time-independent Hermitian generator H goes through its
:class:`Spectrum`: one eigendecomposition H = V diag(lambda) V^dag, after
which exp(-i*H*t/hbar) at any time t is V diag(exp(-i*lambda*t/hbar)) V^dag.
A generator of the diagonal storage kind (see :class:`Operator`) is its
own eigenbasis, so its evolution is the phase vector alone, and it moves
a diagonal operator in the Heisenberg picture to a diagonal one.
:func:`matrix_exp` is the general Pade exponential; no evolution path
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.integrate import quad_vec

from .hilbert import Operator, StateVector, apply

__all__ = [
    "resonance_kernel",
    "matrix_exp",
    "Spectrum",
    "spectrum",
    "Propagator",
    "propagator",
    "evolve",
    "heisenberg",
    "dyson_first_order",
]

HERMITICITY_TOL = 1e-10
_KERNEL_SERIES_CUTOFF = 1e-6
# a phase |lambda*t/hbar| this large keeps no digit below 2*pi
_PHASE_LIMIT = 1.0 / np.finfo(float).eps


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
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow is detected on the result and rejected below
        result = scipy.linalg.expm(a.toarray())
    if not np.all(np.isfinite(result)):
        scale = a.max_abs()
        raise ValueError(
            f"matrix exponential overflowed (max input magnitude {scale:.3e}; "
            "rescale the generator)"
        )
    return Operator(a.layout, result)


def _check_hermitian(h: Operator):
    dev = h.hermitian_deviation()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"generator is not Hermitian (deviation {dev:.3e})")


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of one Hermitian generator, reused at every time.

    ``energies`` are the real eigenvalues and ``vectors`` the orthonormal
    eigenvectors as columns; ``vectors`` is None for a generator of the
    diagonal kind, whose eigenvalues are its diagonal in basis order.  A
    dense step is applied as the identity plus V diag(exp(-i*lambda*t/hbar)
    - 1) V^dag, so a short step is as accurate as it is small.
    """

    generator: Operator
    hbar: float
    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray | None = field(repr=False)

    def _angles(self, t: float) -> np.ndarray | None:
        """-i*lambda*t/hbar per eigenvalue, or None when all of them are exactly 0.

        ``eigh`` cannot overflow, so a time is refused when the largest
        phase has no digit left below 2*pi (or is not finite).
        """
        largest = float(np.max(np.abs(self.energies))) * abs(float(t)) / self.hbar
        if not largest < _PHASE_LIMIT:
            raise ValueError(
                f"matrix exponential overflowed (largest phase |lambda*t/hbar| = "
                f"{largest:.3e}, limit {_PHASE_LIMIT:.3e}; rescale the generator or the time)"
            )
        if largest == 0.0:
            return None
        return -1j * self.energies * t / self.hbar

    def unitary(self, t: float) -> Operator:
        """exp(-i*H*t/hbar); exactly the identity when every phase is 0."""
        layout = self.generator.layout
        angles = self._angles(t)
        if angles is None:
            return Operator.identity(layout)
        if self.vectors is None:
            return Operator.from_diagonal(layout, np.exp(angles))
        v = self.vectors
        u = (v * np.expm1(angles)) @ v.conj().T
        u[np.diag_indices_from(u)] += 1.0
        return Operator(layout, u)

    def evolve(self, psi: StateVector, t: float) -> StateVector:
        """exp(-i*H*t/hbar)|psi>; ``psi`` itself when every phase is 0."""
        if psi.layout != self.generator.layout:
            raise ValueError("layout mismatch between generator and state")
        angles = self._angles(t)
        if angles is None:
            return psi
        if self.vectors is None:
            return StateVector(psi.layout, np.exp(angles) * psi.amplitudes)
        v = self.vectors
        step = v @ (np.expm1(angles) * (v.conj().T @ psi.amplitudes))
        return StateVector(psi.layout, psi.amplitudes + step)


def spectrum(h: Operator, hbar: float = 1.0) -> Spectrum:
    """The :class:`Spectrum` of a finite Hermitian generator ``h``."""
    if not np.all(np.isfinite(h.data)):
        raise ValueError("generator has non-finite entries")
    _check_hermitian(h)
    if h.diagonal:
        return Spectrum(h, float(hbar), h.data.real, None)
    energies, vectors = np.linalg.eigh(h.data)
    return Spectrum(h, float(hbar), energies, vectors)


@dataclass(frozen=True)
class Propagator:
    """Unitary exp(-i*H*t/hbar) together with its generator and time."""

    u: Operator
    generator: Operator
    time: float

    def unitarity_deviation(self) -> float:
        return (self.u.dag() @ self.u - Operator.identity(self.u.layout)).max_abs()


def propagator(h: Operator, t: float, hbar: float = 1.0) -> Propagator:
    return Propagator(u=spectrum(h, hbar).unitary(t), generator=h, time=t)


def evolve(h: Operator, psi0: StateVector, t: float, hbar: float = 1.0) -> StateVector:
    """Schroedinger evolution exp(-i*H*t/hbar)|psi0>."""
    return spectrum(h, hbar).evolve(psi0, t)


def heisenberg(h: Operator, a: Operator, t: float, hbar: float = 1.0) -> Operator:
    """Heisenberg-picture operator exp(i*H*t/hbar) A exp(-i*H*t/hbar)."""
    if h.layout != a.layout:
        raise ValueError("layout mismatch between generator and operator")
    u = spectrum(h, hbar).unitary(-t)
    return u @ a @ u.dag()


def dyson_first_order(h_builder: Callable[[float], Operator], psi0: StateVector,
                      t: float, quad_tol: float = 1e-12,
                      hbar: float = 1.0) -> StateVector:
    """|psi0> + (i*hbar)^-1 integral_0^t H_I(t')|psi0> dt' by adaptive quadrature.

    The result is the raw first-order sum (not normalized).  Quadrature
    that fails to converge to ``quad_tol`` is rejected.
    """

    def integrand(tp: float) -> np.ndarray:
        return apply(h_builder(tp), psi0).amplitudes

    integral, err, info = quad_vec(integrand, 0.0, t, epsabs=quad_tol,
                                   full_output=True)
    if not info.success:
        raise ValueError(f"quadrature did not converge (error estimate {err:.3e})")
    amps = psi0.amplitudes + integral / (1j * hbar)
    return StateVector(psi0.layout, amps)
