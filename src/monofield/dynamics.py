"""Exact time evolution, Heisenberg conjugation, and first-order Dyson integrals.

Diagonal generators (the structural flag on :class:`Operator`) take an
exact phase path; everything else goes through the matrix exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.integrate import quad_vec

from .hilbert import Operator, StateVector

__all__ = [
    "resonance_kernel",
    "matrix_exp",
    "Propagator",
    "propagator",
    "evolve",
    "heisenberg",
    "dyson_first_order",
]

HERMITICITY_TOL = 1e-10
_KERNEL_SERIES_CUTOFF = 1e-6


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
        return Operator.from_diagonal(a.layout, np.exp(a.diag()))
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


@dataclass(frozen=True)
class Propagator:
    """Unitary exp(-i*H*t/hbar) together with its generator and time."""

    u: Operator
    generator: Operator
    time: float

    def unitarity_deviation(self) -> float:
        return (self.u.dag() @ self.u - Operator.identity(self.u.layout)).max_abs()


def _check_hermitian(h: Operator):
    dev = h.hermitian_deviation()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"generator is not Hermitian (deviation {dev:.3e})")


def propagator(h: Operator, t: float, hbar: float = 1.0) -> Propagator:
    _check_hermitian(h)
    u = matrix_exp((-1j * t / hbar) * h)
    return Propagator(u=u, generator=h, time=t)


def evolve(h: Operator, psi0: StateVector, t: float, hbar: float = 1.0) -> StateVector:
    """Schroedinger evolution exp(-i*H*t/hbar)|psi0>."""
    if h.layout != psi0.layout:
        raise ValueError("layout mismatch between generator and state")
    _check_hermitian(h)
    if h.diagonal:
        phases = np.exp(-1j * h.diag().real * t / hbar)
        return StateVector(psi0.layout, phases * psi0.amplitudes)
    u = matrix_exp((-1j * t / hbar) * h)
    return StateVector(psi0.layout, u.data @ psi0.amplitudes)


def heisenberg(h: Operator, a: Operator, t: float, hbar: float = 1.0) -> Operator:
    """Heisenberg-picture operator exp(i*H*t/hbar) A exp(-i*H*t/hbar)."""
    if h.layout != a.layout:
        raise ValueError("layout mismatch between generator and operator")
    _check_hermitian(h)
    if h.diagonal:
        phases = np.exp(1j * h.diag().real * t / hbar)
        return Operator(a.layout, phases[:, None] * a.data * phases.conj()[None, :],
                        diagonal=a.diagonal)
    u = matrix_exp((1j * t / hbar) * h)
    return u @ a @ u.dag()


def dyson_first_order(h_builder: Callable[[float], Operator], psi0: StateVector,
                      t: float, quad_tol: float = 1e-12,
                      hbar: float = 1.0) -> StateVector:
    """|psi0> + (i*hbar)^-1 integral_0^t H_I(t')|psi0> dt' by adaptive quadrature.

    The result is the raw first-order sum (not normalized).  Quadrature
    that fails to converge to ``quad_tol`` is rejected.
    """

    def integrand(tp: float) -> np.ndarray:
        return h_builder(tp).data @ psi0.amplitudes

    integral, err, info = quad_vec(integrand, 0.0, t, epsabs=quad_tol,
                                   full_output=True)
    if not info.success:
        raise ValueError(f"quadrature did not converge (error estimate {err:.3e})")
    amps = psi0.amplitudes + integral / (1j * hbar)
    return StateVector(psi0.layout, amps)
