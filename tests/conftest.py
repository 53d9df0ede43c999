import numpy as np
import pytest

import monofield as mf


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
