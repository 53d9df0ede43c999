"""Span tracing at the program's layer boundaries, installed from outside.

The tracer wraps public functions of each ``monofield`` module.  Because
the modules bind names with ``from .x import y``, every module attribute
that refers to a wrapped function is replaced, so each caller resolves the
wrapper.  Spans (name, start, end, parent, operation) stay in memory; self
time is a span's duration minus the durations of its direct children.
The tracer also adds up its own bookkeeping: the time spent in a wrapper
outside the call it wraps.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse as sp

from monofield import algebra, cli, dynamics, emission, fields, hilbert, standard

# span name -> functions whose calls it records
LAYERS = {
    "hilbert.matmul": [(hilbert.Operator, "__matmul__")],
    "hilbert.expect": [(hilbert, "expect")],
    "algebra.mode_annihilator": [(algebra, "mode_annihilator")],
    "algebra.verify_algebra": [(algebra, "verify_algebra")],
    "algebra.spectral_ops": [(algebra, "hamiltonian"), (algebra, "momentum"),
                             (algebra, "hamiltonian_from_mode_ladders"),
                             (algebra, "momentum_from_mode_ladders")],
    "fields.field_operator": [(fields, "vector_potential"), (fields, "electric_field"),
                              (fields, "magnetic_field")],
    "fields.field_average": [(fields, "field_average")],
    "fields.coherent_state": [(fields, "coherent_state")],
    "fields.energy_identity": [(fields, "energy_identity")],
    "dynamics.evolve": [(dynamics, "evolve")],
    "dynamics.matrix_exp": [(dynamics, "matrix_exp")],
    "dynamics.dyson": [(dynamics, "dyson_first_order")],
    "emission.hamiltonian_build": [(emission, "atom_field_hamiltonian"),
                                   (emission, "interaction_hamiltonian"),
                                   (emission, "free_hamiltonian_with_atom")],
    "emission.first_order": [(emission, "first_order_emission"),
                             (emission, "first_order_state")],
    "emission.vacuum_check": [(emission, "vacuum_subspace_check")],
    "standard.scheme_run": [(standard, "single_oscillator_run"),
                            (standard, "standard_scheme_run")],
    "standard.jc": [(standard, "jc_excited_population")],
    "cli.load_config": [(cli, "load_config")],
    "cli.write": [(cli, "_write_csv"), (cli, "_write_json"),
                  (algebra, "algebra_reports_csv")],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, operation index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = -1
        self.bookkeeping_s = 0.0  # wrapper time outside the wrapped call

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        if not self._stack:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            if before is not None:
                args = before(self, args)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, args, result)
            _name, start, end, _parent, _op = self.spans[index]
            self.bookkeeping_s += (time.perf_counter() - entered) - (end - start)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "monofield" or key.startswith("monofield.")]
        for name, targets in LAYERS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        init = hilbert.Operator.__init__

        def counted_init(op, *args, **kwargs):
            init(op, *args, **kwargs)
            counted = time.perf_counter()
            self.counts["hilbert.operator_count"] += 1
            self.counts["hilbert.operator_bytes"] += stored_bytes(op.data)
            self.bookkeeping_s += time.perf_counter() - counted
        self._patch(hilbert.Operator, "__init__", counted_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived per-layer metrics ----------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time of every layer, plus the counters."""
        child = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out = {}
        for name in LAYERS:
            out[f"{name}_calls"] = calls[name]
            out[f"{name}_s"] = self_s[name]
        out["emission.hamiltonian_builds"] = out.pop("emission.hamiltonian_build_calls")
        out.update({key: self.counts[key] for key in COUNTERS})
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        return out


def stored_bytes(data) -> int:
    """Bytes of an operator's stored arrays (all three arrays for CSR)."""
    if sp.issparse(data):
        return data.data.nbytes + data.indices.nbytes + data.indptr.nbytes
    return data.nbytes


def product_flops(a, b) -> int:
    """Real flops of ``a @ b`` for the stored operands, 8 per complex
    multiply-add: nonzero-based when either is CSR, else from the array
    shapes, so a stack of blocks (..., n, k) @ (..., k, m) counts its
    blocks only and a stored diagonal (1-D) counts one multiply per entry
    of the other operand."""
    if sp.issparse(a) and sp.issparse(b):
        return 8 * int(np.diff(b.indptr)[a.indices].sum())
    if sp.issparse(a):
        return 8 * a.nnz * math.prod(b.shape[1:])
    if sp.issparse(b):
        return 8 * b.nnz * a.shape[0]
    if a.ndim == 1 or b.ndim == 1:
        return 8 * max(a.size, b.size)
    return 8 * math.prod(a.shape) * b.shape[-1]


def _count_flops(tracer, args, result):
    tracer.counts["hilbert.matmul_flops"] += product_flops(args[0].data, args[1].data)


def _count_relations(tracer, args, result):
    tracer.counts["algebra.relations"] += len(result)


def _count_output(tracer, args, result):
    path = args[1] if not isinstance(args[0], (str, os.PathLike)) else args[0]
    tracer.counts["cli.output_bytes"] += os.path.getsize(path)


def _count_integrand(tracer, args):
    builder = args[0]

    def counted(tp):
        tracer.counts["dynamics.dyson_integrand_evals"] += 1
        return builder(tp)
    return (counted, *args[1:])


COUNTERS = ("hilbert.operator_count", "hilbert.operator_bytes", "hilbert.matmul_flops",
            "algebra.relations", "dynamics.dyson_integrand_evals", "cli.output_bytes")
_AFTER = {"hilbert.matmul": _count_flops, "algebra.verify_algebra": _count_relations,
          "cli.write": _count_output}
_BEFORE = {"dynamics.dyson": _count_integrand}
