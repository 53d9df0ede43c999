"""Mode labels, truncated Hilbert-space layouts, states and operators.

A layout enumerates basis kets |mode k, n> (optionally tensored with a
two-level atom), with a single shared Fock ladder of depth ``nmax``.  The
total dimension is M*(nmax+1)*(2 if atom else 1) and grows linearly in the
number of modes: each mode is a sector of one oscillator, not an extra
tensor factor.

Flat index convention (fixed, so serialized matrices are reproducible):
mode index is the slowest axis, then atom level, then photon number::

    flat = (k * A + atom) * (nmax+1) + n,    A = 2 with the atom, else 1

so every mode's (atom, n) kets are contiguous and the per-mode blocks are
a reshape of the flat basis.  :class:`HilbertLayout` is the one owner of
this order: other modules reach states and diagonals through its
(atom levels, modes, n) ``view``/``flat`` or its per-mode (modes, atom*n)
``blocks_of``/``from_blocks``, and an operator's per-mode (atom, n)-square
blocks reach the flat matrix only through ``place``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "FieldConfig",
    "ModeLabel",
    "mode",
    "abstract_mode",
    "HilbertLayout",
    "build_layout",
    "StateVector",
    "StateError",
    "unit_rows",
    "Operator",
    "basis_state",
    "superposition",
    "inner",
    "apply",
    "expect",
    "expect_rows",
    "read_json",
    "read_real",
    "read_int",
    "parse_complex",
    "parse_complex_list",
    "load_mode_set",
    "save_state",
    "load_state",
    "save_operator",
    "load_operator",
]

_OMEGA_RTOL = 1e-12


@dataclass(frozen=True)
class FieldConfig:
    """Physical constants and quantization-box data.

    Defaults are natural units; pass explicit values for dimensional runs.
    """

    hbar: float = 1.0
    c: float = 1.0
    volume: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "volume"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"FieldConfig.{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class ModeLabel:
    """One field mode: polarization s = +-1, wavevector, frequency, degeneracy tag.

    A zero wavevector marks an "abstract" mode (frequency chosen freely,
    no propagation direction); such modes are rejected by any operation
    that needs a direction or polarization vector.
    """

    s: int
    kappa: tuple[float, float, float]
    omega: float
    j: int = 0

    def __post_init__(self):
        if self.s not in (+1, -1):
            raise ValueError(f"polarization index must be +1 or -1, got {self.s}")
        if len(self.kappa) != 3 or not all(math.isfinite(x) for x in self.kappa):
            raise ValueError(f"kappa must be a finite 3-vector, got {self.kappa!r}")
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        object.__setattr__(self, "kappa", tuple(float(x) for x in self.kappa))

    @property
    def abstract(self) -> bool:
        return self.kappa == (0.0, 0.0, 0.0)


def mode(s: int, kappa: Sequence[float], j: int = 0, *, c: float = 1.0,
         omega: float | None = None) -> ModeLabel:
    """Construct a propagating mode, enforcing omega = c*|kappa|.

    If ``omega`` is supplied it must match c*|kappa| to 1e-12 relative;
    otherwise it is computed.  A zero wavevector is rejected here: use
    :func:`abstract_mode` for direction-free modes.  So is a finite one whose
    norm under- or overflows, as the polarization vectors divide by it.
    """
    kv = tuple(float(x) for x in kappa)
    norm = math.sqrt(sum(x * x for x in kv))
    if not any(kv):
        raise ValueError("mode() requires a nonzero wavevector; use abstract_mode()")
    if norm in (0.0, math.inf) and all(map(math.isfinite, kv)):
        raise ValueError(f"the norm of wavevector {kv!r} is out of the float range")
    computed = c * norm
    if omega is not None and abs(omega - computed) > _OMEGA_RTOL * computed:
        raise ValueError(
            f"omega={omega} inconsistent with c*|kappa|={computed} "
            f"(relative tolerance {_OMEGA_RTOL})"
        )
    return ModeLabel(s=s, kappa=kv, omega=computed, j=j)


def abstract_mode(omega: float, j: int = 0, s: int = +1) -> ModeLabel:
    """Construct a direction-free mode: zero wavevector, frequency given."""
    return ModeLabel(s=s, kappa=(0.0, 0.0, 0.0), omega=float(omega), j=j)


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered mode set with a shared Fock truncation and optional atom factor."""

    modes: tuple[ModeLabel, ...]
    nmax: int
    atom_levels: int = 0

    def __post_init__(self):
        if self.atom_levels not in (0, 2):
            raise ValueError(f"atom_levels must be 0 or 2, got {self.atom_levels}")

    # the sizes and the mode constants are cached: per-call bookkeeping of small
    # operators and the field weights read them often

    @cached_property
    def n_modes(self) -> int:
        return len(self.modes)

    @cached_property
    def fock_dim(self) -> int:
        return self.nmax + 1

    @cached_property
    def levels(self) -> int:
        """Length of the atom axis of :meth:`view`: 2 with the atom, else 1."""
        return max(1, self.atom_levels)

    @cached_property
    def dimension(self) -> int:
        return self.n_modes * self.levels * self.fock_dim

    @property
    def has_atom(self) -> bool:
        return self.atom_levels == 2

    @cached_property
    def omegas(self) -> np.ndarray:
        """The read-only (M,) mode frequencies."""
        omegas = np.array([m.omega for m in self.modes])
        omegas.setflags(write=False)
        return omegas

    @cached_property
    def kappas(self) -> np.ndarray:
        """The read-only (M, 3) mode wavevectors."""
        kappas = np.array([m.kappa for m in self.modes])
        kappas.setflags(write=False)
        return kappas

    def flatten(self, k: int, n: int, atom: int = 0) -> int:
        """Flat index of |mode k, n photons> (x |atom level>)."""
        if not 0 <= k < self.n_modes:
            raise IndexError(f"mode index {k} out of range [0, {self.n_modes})")
        if not 0 <= n <= self.nmax:
            raise IndexError(f"photon number {n} out of range [0, {self.nmax}]")
        if atom and not self.has_atom:
            raise IndexError("layout has no atom factor")
        if self.has_atom and atom not in (0, 1):
            raise IndexError(f"atom level {atom} out of range [0, 2)")
        return (k * self.levels + atom) * self.fock_dim + n

    def view(self, values: np.ndarray) -> np.ndarray:
        """The (atom levels, modes, n) view of a length-D state or diagonal,
        after any leading axes of a stack of them; writing through it writes
        the flat array.  The flat order is (modes, atom levels, n), so this
        is a transposed view."""
        shape = (*values.shape[:-1], self.n_modes, self.levels, self.fock_dim)
        return values.reshape(shape).swapaxes(-3, -2)

    def flat(self, values) -> np.ndarray:
        """New length-D array whose :meth:`view` is ``values``, broadcast."""
        values = np.asarray(values)
        out = np.empty(self.dimension, dtype=values.dtype)
        self.view(out)[...] = values
        return out

    @cached_property
    def block_shape(self) -> tuple[int, int, int]:
        """(M, A*b, A*b), A = :attr:`levels`, b = nmax+1: the shape of the
        block storage kind of :class:`Operator`."""
        size = self.levels * self.fock_dim
        return self.n_modes, size, size

    def blocks_of(self, values) -> np.ndarray:
        """The (M, A*b) per-mode rows of a length-D state or diagonal, after
        any leading axes of a stack of them: row k holds mode k's kets in
        (atom, n) order.  A reshape, so a view of contiguous input."""
        values = np.asarray(values)
        return values.reshape(*values.shape[:-1], *self.block_shape[:2])

    def from_blocks(self, rows) -> np.ndarray:
        """The length-D array (after any leading axes) whose :meth:`blocks_of`
        is ``rows``; a view of contiguous input."""
        rows = np.asarray(rows)
        return rows.reshape(*rows.shape[:-2], self.dimension)

    def on_each_level(self, field_blocks: np.ndarray) -> np.ndarray:
        """Mode blocks that act as the (nmax+1)-square ``field_blocks`` on every atom level."""
        return field_blocks if self.levels == 1 else np.kron(np.eye(self.levels), field_blocks)

    def place(self, blocks: np.ndarray) -> np.ndarray:
        """D x D matrix with blocks[k] on the block of mode k, zero elsewhere.

        Mode k's block is the square of its contiguous kets (see
        :meth:`blocks_of`).  The blocks are added onto zeros, so every entry
        is what a running sum over the modes gives, down to the sign of zeros.
        """
        m, size, _ = self.block_shape
        out = np.zeros((m, size, m, size), dtype=complex)
        k = np.arange(m)
        out[k, :, k, :] += blocks
        return out.reshape(self.dimension, self.dimension)

    def without_atom(self) -> "HilbertLayout":
        return HilbertLayout(self.modes, self.nmax, 0)


def build_layout(modes: Sequence[ModeLabel], nmax: int,
                 with_atom: bool = False) -> HilbertLayout:
    """Validate a mode list and assemble a layout.

    Rejects duplicate modes (reporting the offending label) and nmax < 1.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("mode set must be nonempty")
    seen: set[ModeLabel] = set()
    for m in modes:
        if m in seen:
            raise ValueError(f"duplicate mode in mode set: {m}")
        seen.add(m)
    if not isinstance(nmax, (int, np.integer)) or isinstance(nmax, bool) or nmax < 1:
        raise ValueError(f"nmax must be an integer >= 1, got {nmax!r}")
    return HilbertLayout(modes=modes, nmax=int(nmax), atom_levels=2 if with_atom else 0)


class StateError(ValueError):
    """A ValueError about one row of a batch, a state or a grid point: its ``index``."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


# below this norm the sum of squares of a weight row may have underflowed
_SMALL_NORM = math.sqrt(np.finfo(float).tiny)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of every row of a complex array, summed like np.linalg.norm of that row."""
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def unit_rows(weights: np.ndarray) -> np.ndarray:
    """Every row of a complex (S, M) array divided by its 2-norm: the one
    normaliser of sector weights, dipole directions and state vectors.

    A row whose squares may underflow (norm below sqrt(tiny)) is first
    divided by its largest modulus, and one whose squares overflow by its
    largest real or imaginary part, which is finite where a modulus may
    not be; any other row is divided by its plain norm.  Refuses an
    all-zero row and a non-finite entry with a :class:`StateError`
    naming the first such row.
    """
    with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
        norms = row_norms(weights)
    small = norms < _SMALL_NORM
    rescale = small | (norms == math.inf)
    if rescale.any():
        rows = weights[rescale]
        # a zero or non-finite row comes out non-finite and is refused below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            peaks = np.where(small[rescale], np.abs(rows).max(axis=1, initial=0.0),
                             np.abs(rows.view(float)).max(axis=1, initial=0.0))
            # real division of each part: a complex one overflows on a subnormal peak
            scaled = (rows.view(float) / peaks[:, None]).view(complex)
            norms[rescale] = row_norms(scaled)
        weights = weights.copy()
        weights[rescale] = scaled
    if not np.isfinite(norms).all():
        row = int(np.argmin(np.isfinite(norms)))
        raise StateError(row, "all sector weights are zero" if small[row]
                         else "the sector weights are not finite")
    return weights / norms[:, None]


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a layout.

    Amplitudes may be unnormalized (e.g. perturbative sums); call
    :meth:`normalize` for a unit vector.
    """

    layout: HilbertLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.layout.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, layout dimension "
                f"is {self.layout.dimension}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        """The unit vector along this one; squares may under- or overflow."""
        if not (self.amplitudes.any() and np.isfinite(self.amplitudes).all()):
            raise ValueError(f"cannot normalize a vector of norm {self.norm}")
        return StateVector(self.layout, unit_rows(self.amplitudes[None])[0])

    def amplitude(self, k: int, n: int, atom: int = 0) -> complex:
        return complex(self.amplitudes[self.layout.flatten(k, n, atom)])


class Operator:
    """Square complex operator tied to a layout, in one of two storage kinds.

    The kind is the shape of the read-only ``data`` array:

    * ``diagonal``: a length-D vector, the operator's diagonal;
    * ``block``: the (M, A*b, A*b) stack of :attr:`HilbertLayout.block_shape`,
      one (atom, n)-square block per mode on that mode's contiguous kets
      (:meth:`HilbertLayout.blocks_of`), zero between sectors (``toarray``
      is ``layout.place(data)``).

    Both kinds are block-diagonal over the mode sectors, so every operator
    commutes with the frequency operator; a (D, D) matrix is refused.  An
    operation keeps its operands' kind when they agree.  A product with a
    diagonal operand scales the rows or columns of the other one; in a sum,
    a diagonal operand joins a block one as a stack of diagonal blocks.
    """

    __slots__ = ("layout", "data")

    def __init__(self, layout: HilbertLayout, data):
        data = np.asarray(data, dtype=complex)
        data.setflags(write=False)
        if data.shape not in ((layout.dimension,), layout.block_shape):
            raise ValueError(f"operator shape {data.shape} is neither the diagonal "
                             f"({layout.dimension},) nor the block stack "
                             f"{layout.block_shape} of the layout")
        self.layout = layout
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, layout: HilbertLayout) -> "Operator":
        return cls(layout, np.ones(layout.dimension, dtype=complex))

    @classmethod
    def zero(cls, layout: HilbertLayout) -> "Operator":
        return cls(layout, np.zeros(layout.dimension, dtype=complex))

    @classmethod
    def from_diagonal(cls, layout: HilbertLayout, diag) -> "Operator":
        diag = np.array(diag, dtype=complex)
        if diag.shape != (layout.dimension,):
            raise ValueError("diagonal length does not match layout dimension")
        return cls(layout, diag)

    # -- storage ------------------------------------------------------

    @property
    def kind(self) -> str:
        """``"diagonal"`` or ``"block"``."""
        return "diagonal" if self.diagonal else "block"

    @property
    def diagonal(self) -> bool:
        """True for the diagonal storage kind."""
        return self.data.ndim == 1

    def toarray(self) -> np.ndarray:
        return np.diag(self.data) if self.diagonal else self.layout.place(self.data)

    def diag(self) -> np.ndarray:
        if self.diagonal:
            return self.data.copy()
        return self.layout.from_blocks(np.diagonal(self.data, axis1=1, axis2=2).copy())

    def as_blocks(self) -> np.ndarray:
        """The stored array as a block stack: a diagonal as diagonal blocks."""
        if not self.diagonal:
            return self.data
        blocks = np.zeros(self.layout.block_shape, dtype=complex)
        i = np.arange(blocks.shape[-1])
        blocks[:, i, i] = self.layout.blocks_of(self.data)
        return blocks

    def matvec(self, amplitudes: np.ndarray) -> np.ndarray:
        """This operator times every length-D vector of a ``(..., D)`` stack.

        Each vector is multiplied on its own (one GEMM over the stack would
        round by the stack), so a row of the result is the arithmetic of the
        product with that row alone; a block operator multiplies the (M, A*b)
        :meth:`HilbertLayout.blocks_of` rows by their blocks.
        """
        if self.diagonal:
            return self.data * amplitudes
        return block_matvec(self.data, amplitudes)

    # -- algebra ------------------------------------------------------

    def _check_layout(self, other: "Operator"):
        if self.layout != other.layout:
            raise ValueError("operators live on different layouts")

    def _same_kind(self, other: "Operator") -> tuple[np.ndarray, np.ndarray]:
        """Both operands' arrays, as block stacks unless both are diagonal."""
        self._check_layout(other)
        if self.diagonal and other.diagonal:
            return self.data, other.data
        return self.as_blocks(), other.as_blocks()

    def __add__(self, other: "Operator") -> "Operator":
        a, b = self._same_kind(other)
        return Operator(self.layout, a + b)

    def __sub__(self, other: "Operator") -> "Operator":
        a, b = self._same_kind(other)
        return Operator(self.layout, a - b)

    def __neg__(self) -> "Operator":
        return Operator(self.layout, -self.data)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.layout, self.data * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_layout(other)
        a, b = self.data, other.data
        if self.diagonal and other.diagonal:
            product = a * b
        elif self.diagonal:
            product = self.layout.blocks_of(a)[..., :, None] * b
        elif other.diagonal:
            product = a * self.layout.blocks_of(b)[..., None, :]
        else:
            product = a @ b
        return Operator(self.layout, product)

    def dag(self) -> "Operator":
        data = self.data.conj()
        return Operator(self.layout, data if self.diagonal else np.swapaxes(data, -1, -2))

    def commutator(self, other: "Operator") -> "Operator":
        return self @ other - other @ self

    # -- predicates ---------------------------------------------------

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def hermitian_deviation(self) -> float:
        return (self - self.dag()).max_abs()

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.hermitian_deviation() < tol

    def __repr__(self) -> str:
        return f"Operator(dim={self.layout.dimension}, kind={self.kind})"


def block_matvec(blocks: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """(..., M, s, s) mode blocks times (..., D) vectors, leading axes
    broadcast, one vector at a time: each mode's s kets by its block."""
    m, s = blocks.shape[-3], blocks.shape[-1]
    out = blocks @ amplitudes.reshape(*amplitudes.shape[:-1], m, s)[..., None]
    return out.reshape(*out.shape[:-3], m * s)


# -- state construction and brackets -----------------------------------


def basis_state(layout: HilbertLayout, mode_index: int, n: int,
                atom_level: int | None = None) -> StateVector:
    """Unit vector |mode_index, n> (x |atom_level> when the layout has one)."""
    if atom_level is not None and not layout.has_atom:
        raise ValueError("atom_level given but layout has no atom factor")
    amps = np.zeros(layout.dimension, dtype=complex)
    amps[layout.flatten(mode_index, n, atom_level or 0)] = 1.0
    return StateVector(layout, amps)


def superposition(layout: HilbertLayout,
                  amplitude_map: Mapping[tuple, complex]) -> StateVector:
    """Normalized state from a map of (mode, n[, atom]) -> amplitude."""
    amps = np.zeros(layout.dimension, dtype=complex)
    for key, value in amplitude_map.items():
        amps[layout.flatten(*key)] += complex(value)
    if not np.any(amps):
        raise ValueError("amplitude map has no nonzero entries")
    return StateVector(layout, amps).normalize()


def _check_same_layout(a, b):
    if a.layout != b.layout:
        raise ValueError("layout mismatch")


def inner(x: StateVector, y: StateVector) -> complex:
    """<x|y> with the physics convention (antilinear in x)."""
    _check_same_layout(x, y)
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def apply(a: Operator, x: StateVector) -> StateVector:
    _check_same_layout(a, x)
    return StateVector(x.layout, a.matvec(x.amplitudes))


def expect(a: Operator, x: StateVector) -> complex:
    """<x|A|x>; equals inner(x, apply(A, x)) by construction."""
    return inner(x, apply(a, x))


def expect_rows(a: Operator, rows: np.ndarray) -> np.ndarray:
    """<x|A|x> for every row x of an (S, D) amplitude array: one stacked
    :meth:`Operator.matvec` and one conjugated row product, each value the
    one :func:`expect` gives for that row alone."""
    return np.vecdot(rows, a.matvec(rows))


# -- serialization ------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def read_json(source):
    """A JSON document (no NaN/Infinity) from a path or an open file; any
    other value is taken as an already-parsed document and returned as is."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            return read_json(fh)
    if hasattr(source, "read"):
        return json.load(source, parse_constant=_reject_constant)
    return source


def read_real(value, where: str = "value") -> float:
    """A finite JSON number as a float; bools and strings are refused and
    ``where`` names the entry in the error."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{where}: expected a finite number, got {value!r}")


def read_int(value, where: str = "value") -> int:
    """A JSON integer; bools, floats and strings are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{where}: expected an integer, got {value!r}")


def parse_complex(value, where: str = "value") -> complex:
    """A finite JSON number, or an [re, im] pair of them, as a complex.

    Bools and strings are refused; ``where`` names the entry in the error.
    """
    re, im = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    try:
        return complex(read_real(re), read_real(im))
    except ValueError:
        raise ValueError(f"{where}: expected a finite number or [re, im] pair, "
                         f"got {value!r}") from None


def parse_complex_list(values: Sequence, where: str = "value") -> np.ndarray:
    """A list of :func:`parse_complex` entries as one complex array.

    The whole list is read with one type pass and one float array; an
    entry that pass cannot vouch for sends the list through
    :func:`parse_complex` entry by entry, which names the first bad entry
    as ``where[i]``.
    """
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {2}:
        pairs = values
    else:
        pairs = [v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
                 for v in values]
    flat = list(chain.from_iterable(pairs))
    if set(map(type, flat)) <= {int, float}:
        try:
            parts = np.array(flat, dtype=float)
        except OverflowError:  # an int past the float range
            parts = None
        # |x| < max also refuses an int just past the float range that rounds to max
        if parts is not None and abs(parts).max(initial=0.0) < sys.float_info.max:
            return parts.view(complex)
    return np.array([parse_complex(v, f"{where}[{i}]") for i, v in enumerate(values)],
                    dtype=complex)


def load_mode_set(source, config: FieldConfig | None = None) -> tuple[ModeLabel, ...]:
    """Read a mode list from JSON (see :func:`read_json` for the sources).

    Each entry is {"s": +-1, "kappa": [x, y, z], "j": tag}; omega is
    computed as c*|kappa|.  Entries with "omega" instead of "kappa"
    produce abstract modes.
    """
    entries = read_json(source)
    if not isinstance(entries, list):
        raise ValueError("mode set file must hold a JSON list")
    c = (config or FieldConfig()).c
    out = []
    for i, entry in enumerate(entries):
        where = f"modes[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object, got {entry!r}")
        unknown = set(entry) - {"s", "kappa", "omega", "j"}
        if unknown:
            raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
        j = read_int(entry.get("j", 0), f"{where}.j")
        s = read_int(entry.get("s", +1), f"{where}.s")
        if "kappa" in entry:
            kappa = entry["kappa"]
            if not (isinstance(kappa, list) and len(kappa) == 3):
                raise ValueError(f"{where}.kappa: expected [x, y, z], got {kappa!r}")
            out.append(mode(s, [read_real(v, f"{where}.kappa[{n}]")
                                for n, v in enumerate(kappa)], j=j, c=c))
        elif "omega" in entry:
            out.append(abstract_mode(read_real(entry["omega"], f"{where}.omega"), j=j, s=s))
        else:
            raise ValueError(f"{where} needs 'kappa' or 'omega': {entry!r}")
    return tuple(out)


# the flat basis order of every saved state and operator file, named in its first line
_BASIS_ORDER = "mode-atom-n"


def _layout_line(layout: HilbertLayout) -> str:
    """The first line of a state or operator file: the layout its indices refer to."""
    return (f"# monofield layout M={layout.n_modes} nmax={layout.nmax} A={layout.levels} "
            f"order={_BASIS_ORDER}")


def _refuse_non_finite(what: str, path, values: np.ndarray, **indices: np.ndarray) -> None:
    """Refuse a non-finite value, which the ``what`` loader would refuse, with
    a ValueError that names the file and the first such value's ``indices``;
    called before the file is opened, so no file is made or changed."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        at = ", ".join(f"{name} {int(index[i])}" for name, index in indices.items())
        raise ValueError(f"{what} file {str(path)!r}: non-finite value {values[i]} at {at}; "
                         f"load_{what} would refuse it")


def save_state(state: StateVector, path) -> None:
    """Write amplitudes as columnar text under the layout line: index, re, im
    (all entries).  A non-finite amplitude is refused."""
    _refuse_non_finite("state", path, state.amplitudes,
                       index=np.arange(state.layout.dimension))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_layout_line(state.layout)}\nindex,re,im\n")
        for i, z in enumerate(state.amplitudes):
            fh.write(f"{i},{float(z.real)!r},{float(z.imag)!r}\n")


def _read_entries(path, what: str, header: str, layout: HilbertLayout, block: int):
    """(indices, value) of every line of a columnar ``what`` file under its
    layout line and ``header``: integer indices in [0, D) that lie in one
    block of ``block`` kets and that no earlier line repeats, then a finite
    re, im.  A file written for another layout or basis order, or with no
    layout line, and any other bad line are refused with a ValueError that
    names the file."""
    fields = header.count(",") + 1
    dimension = layout.dimension
    name = f"{what} file {str(path)!r}"
    seen = set()
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        expected = _layout_line(layout)
        if not first.startswith("# monofield layout "):
            raise ValueError(
                f"{name} does not name its layout (first line {first!r}); a file written "
                f"before the {_BASIS_ORDER} basis order may index other kets: load it with "
                f"the version that wrote it and write it again with save_{what}")
        if first != expected:
            raise ValueError(f"{name} was written for another layout or basis order: its "
                             f"first line is {first!r}, this layout's is {expected!r}")
        second = fh.readline().strip()
        if second != header:
            raise ValueError(f"unexpected {what} header {second!r} in {name}")
        for number, line in enumerate(fh, start=3):
            entry = line.rstrip("\n").split(",")
            try:
                if len(entry) != fields:
                    raise ValueError(f"expected {fields} fields, got {len(entry)}")
                indices = tuple(int(i) for i in entry[:-2])
                for i in indices:
                    if not 0 <= i < dimension:
                        raise ValueError(f"index {i} out of range [0, {dimension})")
                re, im = float(entry[-2]), float(entry[-1])
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise ValueError(f"non-finite value {re}, {im}")
                if indices[0] // block != indices[-1] // block:
                    raise ValueError(f"entry {indices} lies between the blocks of modes "
                                     f"{indices[0] // block} and {indices[-1] // block}; an "
                                     "operator is block-diagonal over the modes")
                if indices in seen:
                    raise ValueError(f"{header.rsplit(',', 2)[0]} "
                                     f"{','.join(map(str, indices))} repeats an earlier line")
                seen.add(indices)
            except ValueError as exc:
                raise ValueError(f"{name}, line {number}: {exc}") from None
            yield indices, complex(re, im)


def load_state(path, layout: HilbertLayout) -> StateVector:
    """The state :func:`save_state` wrote to ``path`` for ``layout``."""
    amps = np.zeros(layout.dimension, dtype=complex)
    for (i,), value in _read_entries(path, "state", "index,re,im", layout, layout.dimension):
        amps[i] = value
    return StateVector(layout, amps)


def save_operator(op: Operator, path) -> None:
    """Write the nonzero entries of ``op.toarray()`` in row-major order as
    columnar text under the layout line: row, col, re, im, read from the
    stored kind without a D x D copy.  Both kinds are a stack of square
    blocks on the diagonal (D 1x1 blocks or M blocks), and place adds the
    blocks of the block kind onto zeros, which turns a -0.0 part into 0.0.
    A non-finite entry is refused."""
    stack = op.data.reshape(-1, 1, 1) if op.diagonal else op.data
    k, i, j = np.nonzero(stack)
    values = stack[k, i, j] if op.diagonal else stack[k, i, j] + 0.0
    rows, cols = k * stack.shape[-1] + i, k * stack.shape[-1] + j
    _refuse_non_finite("operator", path, values, row=rows, col=cols)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_layout_line(op.layout)}\nrow,col,re,im\n")
        for r, c, z in zip(rows.tolist(), cols.tolist(), values.tolist()):
            fh.write(f"{r},{c},{z.real!r},{z.imag!r}\n")


def load_operator(path, layout: HilbertLayout) -> Operator:
    """The operator :func:`save_operator` wrote to ``path`` for ``layout``, as
    a block stack.  An entry between two mode blocks, which no operator
    holds, and a repeated (row, col) are refused with a ValueError that
    names the file and line."""
    blocks = np.zeros(layout.block_shape, dtype=complex)
    size = layout.block_shape[-1]
    for (r, c), value in _read_entries(path, "operator", "row,col,re,im", layout, size):
        blocks[r // size, r % size, c % size] = value
    return Operator(layout, blocks)
