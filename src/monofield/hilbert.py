"""Mode labels, truncated Hilbert-space layouts, states and operators.

A layout enumerates basis kets |mode k, n> (optionally tensored with a
two-level atom), with a single shared Fock ladder of depth ``nmax``.  The
total dimension is M*(nmax+1)*(2 if atom else 1) and grows linearly in the
number of modes: each mode is a sector of one oscillator, not an extra
tensor factor.

Flat index convention (fixed, so serialized matrices are reproducible):
atom level is the slowest axis, then mode index, then photon number::

    flat = atom * M*(nmax+1) + k * (nmax+1) + n
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FieldConfig",
    "ModeLabel",
    "mode",
    "abstract_mode",
    "HilbertLayout",
    "build_layout",
    "StateVector",
    "Operator",
    "basis_state",
    "superposition",
    "inner",
    "apply",
    "expect",
    "read_json",
    "read_real",
    "read_int",
    "parse_complex",
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
    :func:`abstract_mode` for direction-free modes.
    """
    kv = tuple(float(x) for x in kappa)
    norm = math.sqrt(sum(x * x for x in kv))
    if norm == 0.0:
        raise ValueError("mode() requires a nonzero wavevector; use abstract_mode()")
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

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def fock_dim(self) -> int:
        return self.nmax + 1

    @property
    def field_dim(self) -> int:
        return self.n_modes * self.fock_dim

    @property
    def dimension(self) -> int:
        return self.field_dim * max(1, self.atom_levels)

    @property
    def has_atom(self) -> bool:
        return self.atom_levels == 2

    @property
    def omegas(self) -> np.ndarray:
        return np.array([m.omega for m in self.modes])

    @property
    def kappas(self) -> np.ndarray:
        return np.array([m.kappa for m in self.modes])

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
        return atom * self.field_dim + k * self.fock_dim + n

    def unflatten(self, i: int) -> tuple[int, int, int]:
        """Inverse of :meth:`flatten`; returns (k, n, atom)."""
        if not 0 <= i < self.dimension:
            raise IndexError(f"flat index {i} out of range [0, {self.dimension})")
        atom, rest = divmod(i, self.field_dim)
        k, n = divmod(rest, self.fock_dim)
        return k, n, atom

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
    if not isinstance(nmax, (int, np.integer)) or nmax < 1:
        raise ValueError(f"nmax must be an integer >= 1, got {nmax!r}")
    return HilbertLayout(modes=modes, nmax=int(nmax), atom_levels=2 if with_atom else 0)


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
        n = self.norm
        if not 0.0 < n < math.inf:
            raise ValueError(f"cannot normalize a vector of norm {n}")
        return StateVector(self.layout, self.amplitudes / n)

    def amplitude(self, k: int, n: int, atom: int = 0) -> complex:
        return complex(self.amplitudes[self.layout.flatten(k, n, atom)])


class Operator:
    """Square complex operator tied to a layout, in one of two storage kinds.

    The kind is the shape of the read-only ``data`` array: a length-D
    vector is a diagonal operator (``data`` is its diagonal), a (D, D)
    array a dense one.  Diagonal constructors store vectors, so products,
    brackets and exponentials of diagonal operators cost O(D); an
    operation on two operators of the same kind keeps the kind, and a
    mixed sum promotes the diagonal operand to dense.
    """

    __slots__ = ("layout", "data")

    def __init__(self, layout: HilbertLayout, data):
        data = np.asarray(data, dtype=complex)
        data.setflags(write=False)
        dim = layout.dimension
        if data.shape not in ((dim,), (dim, dim)):
            raise ValueError(f"operator shape {data.shape} does not match layout "
                             f"dimension {dim}")
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
    def diagonal(self) -> bool:
        """True for the diagonal storage kind."""
        return self.data.ndim == 1

    def toarray(self) -> np.ndarray:
        return np.diag(self.data) if self.diagonal else np.array(self.data)

    def diag(self) -> np.ndarray:
        return self.data.copy() if self.diagonal else np.diagonal(self.data).copy()

    # -- algebra ------------------------------------------------------

    def _check_layout(self, other: "Operator"):
        if self.layout != other.layout:
            raise ValueError("operators live on different layouts")

    def _same_kind(self, other: "Operator") -> tuple[np.ndarray, np.ndarray]:
        """Both operands' arrays, the diagonal one written out when the kinds differ."""
        self._check_layout(other)
        if self.diagonal == other.diagonal:
            return self.data, other.data
        return tuple(np.diag(op.data) if op.diagonal else op.data for op in (self, other))

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
        if self.diagonal:
            return Operator(self.layout, a * b if other.diagonal else a[:, None] * b)
        return Operator(self.layout, a * b[None, :] if other.diagonal else a @ b)

    def dag(self) -> "Operator":
        return Operator(self.layout, self.data.conj().T)  # .T leaves a vector as is

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
        return f"Operator(dim={self.layout.dimension}, diagonal={self.diagonal})"


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
    if a.diagonal:
        return StateVector(x.layout, a.data * x.amplitudes)
    return StateVector(x.layout, a.data @ x.amplitudes)


def expect(a: Operator, x: StateVector) -> complex:
    """<x|A|x>; equals inner(x, apply(A, x)) by construction."""
    return inner(x, apply(a, x))


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


def save_state(state: StateVector, path) -> None:
    """Write amplitudes as columnar text: index, re, im (all entries)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,re,im\n")
        for i, z in enumerate(state.amplitudes):
            fh.write(f"{i},{float(z.real)!r},{float(z.imag)!r}\n")


def load_state(path, layout: HilbertLayout) -> StateVector:
    amps = np.zeros(layout.dimension, dtype=complex)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "index,re,im":
            raise ValueError(f"unexpected state header {header!r}")
        for line in fh:
            idx, re, im = line.rstrip("\n").split(",")
            amps[int(idx)] = float(re) + 1j * float(im)
    return StateVector(layout, amps)


def save_operator(op: Operator, path) -> None:
    """Write nonzero entries as columnar text: row, col, re, im."""
    dense = op.toarray()
    rows, cols = np.nonzero(dense)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,re,im\n")
        for r, c in zip(rows.tolist(), cols.tolist()):
            z = dense[r, c]
            fh.write(f"{r},{c},{float(z.real)!r},{float(z.imag)!r}\n")


def load_operator(path, layout: HilbertLayout) -> Operator:
    mat = np.zeros((layout.dimension,) * 2, dtype=complex)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "row,col,re,im":
            raise ValueError(f"unexpected operator header {header!r}")
        for line in fh:
            r, c, re, im = line.rstrip("\n").split(",")
            mat[int(r), int(c)] = float(re) + 1j * float(im)
    return Operator(layout, mat)
