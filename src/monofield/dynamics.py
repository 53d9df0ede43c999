"""Exact time evolution, Heisenberg conjugation, and first-order Dyson integrals.

Evolution under a time-independent Hermitian generator H goes through its
:class:`Spectrum`: one eigendecomposition H = V diag(lambda) V^dag, after
which exp(-i*H*t/hbar) at any time t is V diag(exp(-i*lambda*t/hbar)) V^dag.
The storage kind of the generator (see :class:`Operator`) sets the cost:
a diagonal generator is its own eigenbasis, so its evolution is the phase
vector alone, and it moves a diagonal operator in the Heisenberg picture
to a diagonal one; a block generator is diagonalised by one batched
``eigh`` over its mode blocks, and V is a block operator.
:meth:`Spectrum.trajectory` evolves one state to a whole array of times
through one stacked :meth:`Operator.matvec` of the (times, D) phases, with
each time's row the same arithmetic as a single step;
:meth:`Spectrum.evolve` is the trajectory at one time.
:func:`matrix_exp` is the general Pade exponential; no evolution path
calls it.  scipy is imported only inside :func:`matrix_exp`
(``scipy.linalg``) and :func:`dyson_first_order` (``quad_vec``), so
importing this module, and every command but ``emission``, loads none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hilbert import Operator, StateVector

__all__ = [
    "resonance_kernel",
    "matrix_exp",
    "Spectrum",
    "spectrum",
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


def _check_hermitian(h: Operator):
    dev = h.hermitian_deviation()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"generator is not Hermitian (deviation {dev:.3e})")


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
    adjoint: Operator | None = field(repr=False, init=False)
    largest: float = field(repr=False, init=False)  # max |lambda|

    def __post_init__(self):
        adjoint = None if self.vectors is None else self.vectors.dag()
        object.__setattr__(self, "adjoint", adjoint)
        object.__setattr__(self, "largest", float(np.max(np.abs(self.energies))))

    def _angles(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """-i*lambda*t/hbar per time (rows) and eigenvalue, and which times
        have every phase exactly 0.

        ``eigh`` cannot overflow, so the times are refused when a largest
        phase has no digit left below 2*pi (or is not finite); the message
        names the first such time's phase.
        """
        largest = self.largest * np.abs(times) / self.hbar
        refused = ~(largest < _PHASE_LIMIT)
        if refused.any():
            raise ValueError(
                f"matrix exponential overflowed (largest phase |lambda*t/hbar| = "
                f"{largest[refused][0]:.3e}, limit {_PHASE_LIMIT:.3e}; rescale the generator "
                "or the time)"
            )
        return -1j * self.energies * times[:, None] / self.hbar, largest == 0.0

    def unitary(self, t: float) -> Operator:
        """exp(-i*H*t/hbar); exactly the identity when every phase is 0."""
        layout = self.generator.layout
        (angles,), (still,) = self._angles(np.array([float(t)]))
        if still:
            return Operator.identity(layout)
        if self.vectors is None:
            return Operator.from_diagonal(layout, np.exp(angles))
        step = self.vectors @ Operator.from_diagonal(layout, np.expm1(angles)) @ self.adjoint
        return step + Operator.identity(layout)

    def trajectory(self, psi: StateVector, times) -> np.ndarray:
        """The (T, D) amplitudes of exp(-i*H*t/hbar)|psi> at each of the T
        ``times`` (1-D), in one batched product; a time whose phases are all
        0 gets the amplitudes of ``psi`` exactly.

        Row t is the same arithmetic as a step on its own: the phase vector
        times ``psi`` for a diagonal generator, else ``psi`` plus
        V diag(expm1(angles)) V^dag ``psi`` with V^dag ``psi`` formed once and
        V applied to the (T, D) stack by one :meth:`Operator.matvec`.
        """
        if psi.layout != self.generator.layout:
            raise ValueError("layout mismatch between generator and state")
        angles, still = self._angles(np.asarray(times, dtype=float))
        amplitudes = psi.amplitudes
        if self.vectors is None:
            out = np.exp(angles) * amplitudes
        else:
            out = amplitudes + self.vectors.matvec(
                np.expm1(angles) * self.adjoint.matvec(amplitudes))
        out[still] = amplitudes
        return out

    def evolve(self, psi: StateVector, t: float) -> StateVector:
        """exp(-i*H*t/hbar)|psi>: the :meth:`trajectory` at the one time
        ``t``, so the amplitudes of ``psi`` exactly when every phase is 0."""
        (amplitudes,) = self.trajectory(psi, [t])
        return StateVector(psi.layout, amplitudes)


def spectrum(h: Operator, hbar: float = 1.0) -> Spectrum:
    """The :class:`Spectrum` of a finite Hermitian generator ``h``; one
    batched ``eigh`` over the blocks of a block generator."""
    if not np.all(np.isfinite(h.data)):
        raise ValueError("generator has non-finite entries")
    _check_hermitian(h)
    if h.diagonal:
        return Spectrum(h, float(hbar), h.data.real, None)
    energies, vectors = np.linalg.eigh(h.data)
    return Spectrum(h, float(hbar), h.layout.from_blocks(energies), Operator(h.layout, vectors))


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
                      t: float, hbar: float = 1.0) -> StateVector:
    """|psi0> + (i*hbar)^-1 integral_0^t H_I(t')|psi0> dt' by adaptive quadrature.

    The result is the raw first-order sum (not normalized).  Quadrature
    that fails to converge to an absolute 1e-12 is rejected.
    """
    from scipy.integrate import quad_vec

    def integrand(tp: float) -> np.ndarray:
        h = h_builder(tp)
        if h.layout != psi0.layout:
            raise ValueError("layout mismatch")
        return h.matvec(psi0.amplitudes)

    integral, err, info = quad_vec(integrand, 0.0, t, epsabs=1e-12,
                                   full_output=True)
    if not info.success:
        raise ValueError(f"quadrature did not converge (error estimate {err:.3e})")
    amps = psi0.amplitudes + integral / (1j * hbar)
    return StateVector(psi0.layout, amps)
