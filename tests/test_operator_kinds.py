"""The two storage kinds of Operator: a length-D vector is a diagonal
operator, a (D, D) array a dense one.

Every operation on the stored arrays is checked against the same operation
on the written-out dense matrices; for real diagonals the results are equal
bit for bit, because each entry of a product with a diagonal matrix is one
product plus exact zeros.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import monofield as mf
from monofield.algebra import full_commutator_reference, hamiltonian_from_frequency_operator
from monofield.cli import load_config
from monofield.emission import sigma3
from monofield.fields import _poisson_tail, _poisson_tails
from conftest import random_hermitian, random_state

DATA = Path(__file__).parent / "data"


@pytest.fixture
def layout():
    return mf.build_layout([mf.abstract_mode(1.0), mf.abstract_mode(2.5),
                            mf.abstract_mode(0.4)], 3)


def real_diagonal(layout, rng):
    return mf.Operator.from_diagonal(layout, rng.normal(size=layout.dimension))


def complex_diagonal(layout, rng):
    return mf.Operator.from_diagonal(
        layout, rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension))


class TestDiagonalConstructors:
    def test_every_diagonal_constructor_stores_a_vector(self, mixed_modes, rng):
        field = mf.build_layout(mixed_modes, 3)
        atom = mf.build_layout(mixed_modes, 3, with_atom=True)
        params = mf.AtomParams.make(1.3, 0.02, [1.0, 0.0, 0.0])
        h = mf.hamiltonian(field)
        ops = [
            mf.Operator.identity(field), mf.Operator.zero(field),
            mf.Operator.from_diagonal(field, np.arange(field.dimension)),
            mf.mode_projector(atom, 1), mf.number_operator(field, 2),
            mf.frequency_operator(atom), h, hamiltonian_from_frequency_operator(field),
            mf.hamiltonian_from_mode_ladders(field), *mf.momentum(atom),
            *mf.momentum_from_mode_ladders(atom), full_commutator_reference(field, 0),
            sigma3(atom), mf.free_hamiltonian_with_atom(atom, params, mf.FieldConfig()),
            mf.matrix_exp(-1j * h), mf.propagator(h, 0.7).u, mf.propagator(h, 0.0).u,
            mf.heisenberg(h, mf.number_operator(field, 0), 1.1),
        ]
        for op in ops:
            assert op.diagonal and op.data.shape == (op.layout.dimension,)

    def test_dense_storage_is_not_diagonal(self, layout, rng):
        assert not random_hermitian(layout, rng).diagonal
        assert not mf.mode_annihilator(layout, 0).diagonal
        assert not mf.Operator(layout, np.eye(layout.dimension)).diagonal

    def test_toarray_writes_the_diagonal(self, layout, rng):
        d = complex_diagonal(layout, rng)
        assert np.array_equal(d.toarray(), np.diag(d.data))
        assert np.array_equal(d.diag(), d.data)

    def test_wrong_shapes_rejected(self, layout):
        for shape in [(layout.dimension + 1,), (layout.dimension, 1), (2, 2, 2)]:
            with pytest.raises(ValueError, match="shape"):
                mf.Operator(layout, np.zeros(shape))


KINDS = {
    "diag": real_diagonal,
    "dense": random_hermitian,
}


class TestKindArithmetic:
    @pytest.mark.parametrize("left", KINDS)
    @pytest.mark.parametrize("right", KINDS)
    def test_binary_operations_match_dense(self, layout, rng, left, right):
        x, y = KINDS[left](layout, rng), KINDS[right](layout, rng)
        xm, ym = x.toarray(), y.toarray()
        for got, want in [(x + y, xm + ym), (x - y, xm - ym), (x @ y, xm @ ym),
                          (x.commutator(y), xm @ ym - ym @ xm)]:
            assert got.diagonal == (left == right == "diag")
            assert np.array_equal(got.toarray(), want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unary_operations_match_dense(self, layout, rng, kind):
        x = KINDS[kind](layout, rng)
        xm = x.toarray()
        for got, want in [(-x, -xm), (x.dag(), xm.conj().T), (2.5j * x, 2.5j * xm),
                          (x * -0.3, xm * -0.3)]:
            assert got.diagonal == (kind == "diag")
            assert np.array_equal(got.toarray(), want)
        assert x.max_abs() == float(np.max(np.abs(xm)))
        assert x.hermitian_deviation() == float(np.max(np.abs(xm - xm.conj().T)))

    @pytest.mark.parametrize("left", ["diag", "dense"])
    @pytest.mark.parametrize("right", ["diag", "dense"])
    def test_complex_diagonal_products_close_to_dense(self, layout, rng, left, right):
        make = {"diag": complex_diagonal, "dense": random_hermitian}
        x, y = make[left](layout, rng), make[right](layout, rng)
        got = (x @ y).toarray()
        want = x.toarray() @ y.toarray()
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", KINDS)
    def test_apply_and_expect_match_dense(self, layout, rng, kind):
        x = KINDS[kind](layout, rng)
        psi = random_state(layout, rng)
        dense = mf.Operator(layout, x.toarray())
        assert np.array_equal(mf.apply(x, psi).amplitudes, dense.toarray() @ psi.amplitudes)
        assert mf.expect(x, psi) == mf.expect(dense, psi)

    def test_layout_mismatch_rejected(self, layout, two_tone_layout):
        a, b = mf.Operator.identity(layout), mf.Operator.identity(two_tone_layout)
        for op in (lambda: a + b, lambda: a - b, lambda: a @ b):
            with pytest.raises(ValueError, match="different layouts"):
                op()


def test_verify_algebra_reads_either_kind(layout):
    projectors = [mf.mode_projector(layout, k) for k in range(layout.n_modes)]
    dense = [mf.Operator(layout, p.toarray()) for p in projectors]
    got = mf.verify_algebra(layout, annihilators=projectors)
    assert got == mf.verify_algebra(layout, annihilators=dense)
    assert not all(r.passed for r in got)


class TestHeisenbergKinds:
    @pytest.mark.parametrize("t", [0.0, 0.9, -2.3])
    def test_diagonal_generator_keeps_a_diagonal_operator_diagonal(self, layout, rng, t):
        h = mf.hamiltonian(layout, mf.FieldConfig(hbar=0.7))
        a = complex_diagonal(layout, rng)
        moved = mf.heisenberg(h, a, t, 0.7)
        assert moved.diagonal and moved.data.shape == (layout.dimension,)
        dense = mf.heisenberg(h, mf.Operator(layout, a.toarray()), t, 0.7)
        assert np.array_equal(moved.toarray(), dense.toarray())
        slow = mf.heisenberg(mf.Operator(layout, h.toarray()),
                             mf.Operator(layout, a.toarray()), t, 0.7)
        assert np.max(np.abs(moved.toarray() - slow.toarray())) < 1e-12


def scalar_coherent_amplitudes(layout, spec):
    """The per-mode recurrence col[n] = col[n-1]*alpha/sqrt(n) in complex
    scalars, each column normalized and weighted on its own."""
    amps = np.zeros(layout.dimension, dtype=complex)
    for k, (w, alpha) in enumerate(zip(spec.weights, spec.alphas)):
        col = np.empty(layout.fock_dim, dtype=complex)
        col[0] = 1.0
        for n in range(1, layout.fock_dim):
            col[n] = col[n - 1] * alpha / math.sqrt(n)
        lo = k * layout.fock_dim
        amps[lo:lo + layout.fock_dim] = w * (col / np.linalg.norm(col))
    return amps


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBatchedCoherentState:
    def test_random_spec_matches_the_scalar_recurrence(self, rng):
        modes = [mf.mode(int(s), v) for s, v in zip(rng.choice([-1, 1], size=32),
                                                   rng.normal(size=(32, 3)))]
        layout = mf.build_layout(modes, 12)
        for scale in (0.0, 0.3, 0.8):  # |alpha| <= 0.8 keeps the tail at nmax 12 below 1e-10
            weights = rng.normal(size=32) + 1j * rng.normal(size=32)
            alphas = scale * rng.uniform(size=32) * np.exp(2j * np.pi * rng.uniform(size=32))
            alphas[::5] = alphas[::5].real  # some real amplitudes, zero imaginary parts
            spec = mf.CoherentSpec.make(modes, weights, alphas)
            assert same_bits(mf.coherent_state(layout, spec).amplitudes,
                             scalar_coherent_amplitudes(layout, spec))

    @pytest.mark.parametrize("name", ["config_vac.json", "config_field.json"])
    def test_data_configs_match_the_scalar_recurrence(self, name):
        cfg, _ = load_config(DATA / name)
        layout = mf.build_layout(cfg.modes, cfg.nmax)
        specs = [spec for _, spec in cfg.states] + [cfg.coherent] * (cfg.coherent is not None)
        assert specs
        for spec in specs:
            assert same_bits(mf.coherent_state(layout, spec).amplitudes,
                             scalar_coherent_amplitudes(layout, spec))

    def test_first_failing_mode_is_reported(self):
        modes = [mf.abstract_mode(w) for w in (1.0, 2.0, 3.0)]
        layout = mf.build_layout(modes, 5)
        spec = mf.CoherentSpec.make(modes, [1.0] * 3, [0.1, 3.0, 1e300])
        with pytest.raises(ValueError, match=r"\|alpha\|=3 on mode 1: tail mass"):
            mf.coherent_state(layout, spec)
        spec = mf.CoherentSpec.make(modes, [1.0] * 3, [0.1, 1e300, 3.0])
        with pytest.raises(ValueError, match="on mode 1 is too large"):
            mf.coherent_state(layout, spec)

    def test_decision_and_reported_need_follow_the_scalar_tail(self, rng):
        # a bound exactly at the scalar tail, and one ulp below it: the vector
        # tail alone may land on either side, the decision may not
        modes = [mf.abstract_mode(1.0)]
        checked = 0
        for nmax in (3, 12, 40):
            layout = mf.build_layout(modes, nmax)
            for mu in 10 ** rng.uniform(-1.0, 1.5, 40):
                spec = mf.CoherentSpec.make(modes, [1.0], [math.sqrt(mu)])
                tail = _poisson_tail(abs(spec.alphas[0]) ** 2, nmax)
                if not tail > 1e-12:  # required_truncation cannot resolve tails near eps
                    continue
                mf.coherent_state(layout, spec, tail_tol=tail)
                with pytest.raises(ValueError, match=r"nmax >= \d+ required") as refused:
                    mf.coherent_state(layout, spec, tail_tol=math.nextafter(tail, 0.0))
                need = int(str(refused.value).split("nmax >= ")[1].split()[0])
                assert need > nmax
                assert f"tail mass {tail:.3e}" in str(refused.value)
                checked += 1
        assert checked > 60

    def test_vectorised_tails_match_the_scalar_sum(self, rng):
        # the vector exp and log may round differently in the last bit, and
        # 1 - kept cancels, so near 0 a tail may move by an ulp of 1
        mus = np.concatenate([[0.0, 1e-300, 1e-12, 9.0], 10 ** rng.uniform(-6, 2.7, 400)])
        eps = np.finfo(float).eps
        for nmax in (0, 1, 5, 12, 30, 200):
            got = _poisson_tails(mus, nmax)
            want = np.array([_poisson_tail(mu, nmax) for mu in mus])
            assert np.all(np.abs(got - want) <= 1e-12 * want + eps)
            assert got[0] == want[0] == 0.0
