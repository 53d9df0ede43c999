import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import monofield as mf
from monofield import dynamics, emission
from monofield.hilbert import build_layout, superposition

ROOT = Path(__file__).resolve().parents[1]
# largest absolute difference allowed between two routes of the convergence
# sweep, or between a route and the 40-digit doublet oracle, on the
# deviations of unit-norm states
SWEEP_BOUND = 1e-14


@pytest.fixture
def natural():
    """Natural units: hbar = c = V = 1."""
    return mf.FieldConfig()


@pytest.fixture
def mixed_modes():
    """Three propagating modes with mixed directions and polarizations."""
    return (
        mf.mode(+1, (0.0, 0.0, 1.0)),
        mf.mode(-1, (0.0, 2.0, 0.0)),
        mf.mode(+1, (1.0, 1.0, 0.0)),
    )


@pytest.fixture
def two_tone_layout():
    """Two direction-free modes with omega = 1, 2 (the workhorse small layout)."""
    return mf.build_layout([mf.abstract_mode(1.0), mf.abstract_mode(2.0)], 3)


def sigma3(layout):
    """The atom's sigma3 on every mode block: -1 on ground, +1 on excited kets."""
    return mf.Operator.from_diagonal(layout, layout.flat(np.array([-1.0, 1.0])[:, None, None]))


def sigma_plus(layout):
    """The atom's raising operator on every mode block: excited rows, ground
    columns, the identity in the photon number."""
    block = np.kron([[0.0, 0.0], [1.0, 0.0]], np.eye(layout.fock_dim))
    return mf.Operator(layout, np.broadcast_to(block, layout.block_shape))


def random_state(layout, rng):
    amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    return mf.StateVector(layout, amps).normalize()


def random_hermitian(layout, rng):
    """Hermitian block operator with random complex blocks."""
    shape = layout.block_shape
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return mf.Operator(layout, 0.5 * (m + np.swapaxes(m.conj(), 1, 2)))


def block_operator(layout, matrix):
    """The block operator whose ``toarray()`` is ``matrix``, a D x D array
    that is zero between the mode blocks."""
    m, size, _ = layout.block_shape
    k = np.arange(m)
    op = mf.Operator(layout, matrix.reshape(m, size, m, size)[k, :, k, :])
    assert np.array_equal(op.toarray(), matrix, equal_nan=True)
    return op


def dense_verify_algebra(layout, annihilators):
    """Reference: the (M, M, 3) deviations from full-space D x D products, pair by pair."""
    mats = [op.toarray() for op in annihilators]
    interior = mf.algebra.interior_indices(layout)
    sub = np.ix_(interior, interior)
    deviations = np.empty((len(mats), len(mats), 3))
    for k, ak in enumerate(mats):
        for l, al in enumerate(mats):
            comm = ak @ al.conj().T - al.conj().T @ ak
            if k == l:
                comm = (comm - mf.mode_projector(layout, k).toarray())[sub]
            prod = ak @ al
            if k == l:
                prod = prod - ak @ ak
            dprod = ak.conj().T @ al.conj().T
            if k == l:
                dprod = dprod - ak.conj().T @ ak.conj().T
            deviations[k, l] = [np.max(np.abs(x)) for x in (comm, prod, dprod)]
    return deviations


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def bench_emission_config(seed):
    """The emission config of the benchmark's input generator for ``seed``."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.emission_inputs(seed)["emission"]


def loop_sweep(cfg, t, couplings):
    """The convergence sweep one coupling at a time by ``eigh``, the
    reference for the doublet one: per coupling one RWA Hamiltonian, one
    evolution through its block spectrum, one first-order state, and the
    uncoupled spectrum taken after the first coupling's own checks.  The
    deviations, or the refusal line."""
    layout = build_layout(cfg.modes, cfg.nmax, with_atom=True)
    initial = superposition(layout, cfg.emission_initial)
    h_free, back = emission.free_hamiltonian_with_atom(layout, cfg.atom, cfg.field), None
    deviations = []
    for d in couplings:
        atom_d = dataclasses.replace(cfg.atom, d=float(d))
        psi_pert = emission.first_order_state(
            initial, atom_d, t, emission.mode_couplings(layout.modes, atom_d, cfg.field))
        h_full = emission.atom_field_hamiltonian(layout, atom_d, cfg.field)
        try:
            psi_s = dynamics.spectrum(h_full, cfg.field.hbar).trajectory(initial, t)
            if back is None:
                back = dynamics.spectrum(h_free, cfg.field.hbar)
            psi_i = back.trajectory(mf.StateVector(layout, psi_s), -t)
        except ValueError as exc:
            return (f"config error: coupling {d!r}, t = {t!r}, "
                    f"field.hbar = {cfg.field.hbar!r}: {exc}\n")
        deviations.append(float(np.linalg.norm(psi_i - psi_pert.amplitudes)))
    return deviations
