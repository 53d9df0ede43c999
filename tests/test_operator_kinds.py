"""The two storage kinds of Operator: a length-D vector is a diagonal
operator, an (M, A*b, A*b) stack a block one; a (D, D) array is refused.

Every operation on the stored arrays is checked against the same operation
in numpy on the written-out dense matrices of ``toarray()``.  Where the
arithmetic is the same the results are equal bit for bit: each entry of a
product with a diagonal matrix is one product plus exact zeros, and sums,
adjoints and maxima act entry by entry.  A product of two blocks, or of a
block and a vector, sums fewer zeros than the dense product, in another
order, so in general it agrees to rounding; the field components, whose
rows hold two entries, give the dense route's bits.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import monofield as mf
from monofield.algebra import full_commutator_reference, hamiltonian_from_frequency_operator
from monofield.cli import load_config
from monofield.fields import _poisson_tail, _poisson_tails
from conftest import dense_verify_algebra, random_hermitian, random_state, sigma3, sigma_plus

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
            mf.mode_projector(atom, 1),
            mf.frequency_operator(atom), h, hamiltonian_from_frequency_operator(field),
            mf.hamiltonian_from_mode_ladders(field), *mf.momentum(atom),
            *mf.momentum_from_mode_ladders(atom), full_commutator_reference(field, 0),
            sigma3(atom), mf.free_hamiltonian_with_atom(atom, params, mf.FieldConfig()),
            mf.matrix_exp(-1j * h), mf.spectrum(h).unitary(0.7), mf.spectrum(h).unitary(0.0),
            mf.heisenberg(h, mf.mode_projector(field, 0), 1.1),
        ]
        for op in ops:
            assert op.diagonal and op.data.shape == (op.layout.dimension,)

    def test_dense_storage_is_not_diagonal(self, layout, rng):
        assert not random_hermitian(layout, rng).diagonal
        assert not mf.mode_annihilator(layout, 0).diagonal

    def test_toarray_writes_the_diagonal(self, layout, rng):
        d = complex_diagonal(layout, rng)
        assert np.array_equal(d.toarray(), np.diag(d.data))
        assert np.array_equal(d.diag(), d.data)

    def test_wrong_shapes_rejected(self, layout):
        for shape in [(layout.dimension + 1,), (layout.dimension, 1), (2, 2, 2)]:
            with pytest.raises(ValueError, match="shape"):
                mf.Operator(layout, np.zeros(shape))


# the arithmetic of the block kind, alone and with a diagonal, is checked in TestBlockKind
KINDS = {
    "diag": real_diagonal,
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

    @pytest.mark.parametrize("left", ["diag"])
    @pytest.mark.parametrize("right", ["diag"])
    def test_complex_diagonal_products_close_to_dense(self, layout, rng, left, right):
        make = {"diag": complex_diagonal}
        x, y = make[left](layout, rng), make[right](layout, rng)
        got = (x @ y).toarray()
        want = x.toarray() @ y.toarray()
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", KINDS)
    def test_apply_and_expect_match_dense(self, layout, rng, kind):
        x = KINDS[kind](layout, rng)
        psi = random_state(layout, rng)
        applied = x.toarray() @ psi.amplitudes
        assert np.array_equal(mf.apply(x, psi).amplitudes, applied)
        assert mf.expect(x, psi) == complex(np.vdot(psi.amplitudes, applied))

    def test_layout_mismatch_rejected(self, layout, two_tone_layout):
        a, b = mf.Operator.identity(layout), mf.Operator.identity(two_tone_layout)
        for op in (lambda: a + b, lambda: a - b, lambda: a @ b):
            with pytest.raises(ValueError, match="different layouts"):
                op()


def test_verify_algebra_reads_either_kind(layout):
    projectors = [mf.mode_projector(layout, k) for k in range(layout.n_modes)]
    zero_blocks = mf.Operator(layout, np.zeros(layout.block_shape))
    blocks = [p + zero_blocks for p in projectors]
    assert all(b.kind == "block" for b in blocks)
    got = mf.verify_algebra(layout, annihilators=projectors)
    assert got.deviations.tobytes() \
        == mf.verify_algebra(layout, annihilators=blocks).deviations.tobytes()
    assert got.failed > 0


class TestHeisenbergKinds:
    @pytest.mark.parametrize("t", [0.0, 0.9, -2.3])
    def test_diagonal_generator_keeps_a_diagonal_operator_diagonal(self, layout, rng, t):
        h = mf.hamiltonian(layout, mf.FieldConfig(hbar=0.7))
        a = complex_diagonal(layout, rng)
        moved = mf.heisenberg(h, a, t, 0.7)
        assert moved.diagonal and moved.data.shape == (layout.dimension,)
        blocks = mf.heisenberg(h, a + mf.Operator(layout, np.zeros(layout.block_shape)), t, 0.7)
        assert blocks.kind == "block"
        assert np.array_equal(moved.toarray(), blocks.toarray())
        u = scipy.linalg.expm((-1j * t / 0.7) * h.toarray())
        slow = u.conj().T @ a.toarray() @ u
        assert np.max(np.abs(moved.toarray() - slow)) < 1e-12


def scalar_coherent_amplitudes(layout, spec):
    """The per-mode recurrence col[n] = col[n-1]*alpha/sqrt(n) in complex
    scalars, each column normalized and weighted on its own."""
    amps = np.zeros(layout.dimension, dtype=complex)
    for k, (w, alpha) in enumerate(zip(spec.weights[0], spec.alphas[0])):
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
            spec = mf.CoherentBatch.make(modes, [weights], [alphas])
            assert same_bits(mf.coherent_state(layout, spec).amplitudes,
                             scalar_coherent_amplitudes(layout, spec))

    @pytest.mark.parametrize("name", ["config_vac.json", "config_field.json"])
    def test_data_configs_match_the_scalar_recurrence(self, name):
        cfg, _ = load_config(DATA / name)
        layout = mf.build_layout(cfg.modes, cfg.nmax)
        specs = [cfg.states.rows(s, s + 1) for s in range(len(cfg.states))]
        specs += [cfg.coherent] * (cfg.coherent is not None)
        assert specs
        for spec in specs:
            assert same_bits(mf.coherent_state(layout, spec).amplitudes,
                             scalar_coherent_amplitudes(layout, spec))

    def test_first_failing_mode_is_reported(self):
        modes = [mf.abstract_mode(w) for w in (1.0, 2.0, 3.0)]
        layout = mf.build_layout(modes, 5)
        spec = mf.CoherentBatch.make(modes, [[1.0] * 3], [[0.1, 3.0, 1e300]])
        with pytest.raises(ValueError, match=r"\|alpha\|=3 on mode 1: tail mass"):
            mf.coherent_state(layout, spec)
        spec = mf.CoherentBatch.make(modes, [[1.0] * 3], [[0.1, 1e300, 3.0]])
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
                spec = mf.CoherentBatch.make(modes, [[1.0]], [[math.sqrt(mu)]])
                tail = _poisson_tail(abs(complex(spec.alphas[0, 0])) ** 2, nmax)
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


# -- the block kind -------------------------------------------------------


@pytest.fixture(params=[False, True], ids=["field", "atom"])
def block_layout(request):
    """Three modes at nmax 2: blocks of side 3, or 6 with the atom."""
    return mf.build_layout([mf.abstract_mode(1.0), mf.abstract_mode(2.5),
                            mf.abstract_mode(0.4)], 2, with_atom=request.param)


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


STACK_KINDS = {"diagonal": complex_diagonal, "block": random_hermitian}


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_a_stack_of_states_is_applied_row_by_row(block_layout, rng, kind):
    """matvec of a (..., D) stack and expect_rows give each row's own bits."""
    x = STACK_KINDS[kind](block_layout, rng)
    rows = np.array([random_state(block_layout, rng).amplitudes for _ in range(6)])
    stacked = x.matvec(rows.reshape(2, 3, -1))
    assert stacked.shape == (2, 3, block_layout.dimension)
    for row, got in zip(rows, stacked.reshape(rows.shape)):
        assert same_bits(got, x.matvec(row))
    values = mf.expect_rows(x, rows)
    for row, got in zip(rows, values.tolist()):
        want = mf.expect(x, mf.StateVector(block_layout, row))
        assert repr(got) == repr(want)


class TestBlockKind:
    def test_every_sector_diagonal_constructor_stores_blocks(self, mixed_modes):
        field = mf.build_layout(mixed_modes, 3)
        atom = mf.build_layout(mixed_modes, 3, with_atom=True)
        params = mf.AtomParams.make(1.3, 0.02, [1.0, 0.0, 0.0])
        config = mf.FieldConfig()
        ops = [mf.ladder(field), mf.ladder(atom), mf.mode_annihilator(field, 1),
               mf.mode_annihilator(atom, 2), sigma_plus(atom), sigma_plus(atom).dag(),
               mf.atom_field_hamiltonian(atom, params, config),
               mf.interaction_hamiltonian(atom, params, config, 0.4),
               mf.interaction_picture(atom, params, config)(1.7)]
        for layout in (field, atom):
            for builder in (mf.vector_potential, mf.electric_field, mf.magnetic_field):
                ops.extend(builder(layout, config, 0.3, (0.1, 0.2, -0.4)))
        for op in ops:
            assert op.kind == "block" and op.data.shape == op.layout.block_shape

    def test_toarray_places_each_block_on_its_mode(self, block_layout, rng):
        x = random_hermitian(block_layout, rng)
        b = block_layout.fock_dim
        want = np.zeros((block_layout.dimension,) * 2, dtype=complex)
        for k, block in enumerate(x.data):
            for row, col in np.ndindex(block.shape):
                want[block_layout.flatten(k, row % b, row // b),
                     block_layout.flatten(k, col % b, col // b)] = block[row, col]
        assert np.array_equal(x.toarray(), want)
        assert np.array_equal(x.diag(), np.diagonal(want))
        assert repr(x) == f"Operator(dim={block_layout.dimension}, kind=block)"

    def test_wrong_block_shapes_rejected(self, block_layout):
        m, size, _ = block_layout.block_shape
        for shape in [(m, size + 1, size + 1), (m + 1, size, size), (m, size, size - 1)]:
            with pytest.raises(ValueError, match="shape"):
                mf.Operator(block_layout, np.zeros(shape))

    def test_dag_and_scalars_match_dense(self, block_layout, rng):
        x = random_hermitian(block_layout, rng) @ random_hermitian(block_layout, rng)
        xm = x.toarray()
        for got, want in [(x.dag(), xm.conj().T), (-x, -xm), (2.5j * x, 2.5j * xm)]:
            assert got.kind == "block"
            assert np.array_equal(got.toarray(), want)

    def test_products_match_dense(self, block_layout, rng):
        x, y = random_hermitian(block_layout, rng), random_hermitian(block_layout, rng)
        d = real_diagonal(block_layout, rng)
        xm, ym, dm = x.toarray(), y.toarray(), d.toarray()
        c = complex_diagonal(block_layout, rng)
        for got, want in [(x @ y, xm @ ym), (x @ c, xm @ c.toarray()), (c @ x, c.toarray() @ xm)]:
            assert got.kind == "block" and close(got.toarray(), want)
        for got, want in [(x @ d, xm @ dm), (d @ x, dm @ xm)]:
            assert got.kind == "block"
            assert np.array_equal(got.toarray(), want)

    def test_sums_with_a_diagonal_stay_block(self, block_layout, rng):
        x, d = random_hermitian(block_layout, rng), real_diagonal(block_layout, rng)
        xm, dm = x.toarray(), d.toarray()
        for got, want in [(x + d, xm + dm), (d + x, dm + xm), (x - d, xm - dm),
                          (d - x, dm - xm), (x.commutator(d), xm @ dm - dm @ xm)]:
            assert got.kind == "block"
            assert np.array_equal(got.toarray(), want)

    def test_apply_and_expect_match_dense(self, block_layout, rng):
        x = random_hermitian(block_layout, rng)
        psi = random_state(block_layout, rng)
        applied = x.toarray() @ psi.amplitudes
        assert close(mf.apply(x, psi).amplitudes, applied)
        assert abs(mf.expect(x, psi) - np.vdot(psi.amplitudes, applied)) <= 1e-15 * x.max_abs()

    def test_hermitian_deviation_and_max_abs_match_dense(self, block_layout, rng):
        x = random_hermitian(block_layout, rng) @ random_hermitian(block_layout, rng)
        xm = x.toarray()
        assert x.max_abs() == float(np.max(np.abs(xm)))
        assert x.hermitian_deviation() == float(np.max(np.abs(xm - xm.conj().T)))
        assert random_hermitian(block_layout, rng).hermitian_deviation() == 0.0

    def test_heisenberg_with_a_block_generator_stays_block(self, block_layout, rng):
        h, a = random_hermitian(block_layout, rng), random_hermitian(block_layout, rng)
        moved = mf.heisenberg(h, a, 0.8)
        assert moved.kind == "block"
        u = scipy.linalg.expm(-0.8j * h.toarray())
        want = u.conj().T @ a.toarray() @ u
        assert np.max(np.abs(moved.toarray() - want)) < 1e-12

    def test_matrix_exp_exponentiates_each_block(self, block_layout, rng):
        h = random_hermitian(block_layout, rng)
        got = mf.matrix_exp(-0.6j * h)
        assert got.kind == "block"
        want = scipy.linalg.expm(-0.6j * h.toarray())
        assert np.max(np.abs(got.toarray() - want)) < 1e-12


@pytest.mark.parametrize("name", ["config_emission.json", "config_jc.json"])
def test_block_spectrum_matches_dense_eigh_and_pade(name):
    """One batched eigh over the RWA blocks against the dense eigh of the
    written-out matrix and scipy's Pade exponential."""
    cfg, _ = load_config(DATA / name)
    layout = mf.build_layout(cfg.modes, cfg.nmax, with_atom=True)
    hbar = cfg.field.hbar
    h = mf.atom_field_hamiltonian(layout, cfg.atom, cfg.field)
    assert h.kind == "block"
    blocks = mf.spectrum(h, hbar)
    energies, vectors = np.linalg.eigh(h.toarray())
    assert blocks.vectors.kind == "block"
    scale = float(np.max(np.abs(energies)))
    assert np.max(np.abs(np.sort(blocks.energies) - energies)) <= 1e-14 * scale
    amps = np.zeros(layout.dimension, dtype=complex)
    for (k, n, atom), amp in cfg.emission_initial.items():
        amps[layout.flatten(k, n, atom)] = amp
    psi = mf.StateVector(layout, amps).normalize()
    for t in (0.3, cfg.times[-1], 40.0):
        pade = scipy.linalg.expm((-1j * t / hbar) * h.toarray())
        full = vectors @ np.diag(np.exp((-1j * t / hbar) * energies)) @ vectors.conj().T
        unitary = blocks.unitary(t)
        assert unitary.kind == "block"
        assert np.max(np.abs(unitary.toarray() - pade)) < 1e-12
        assert np.max(np.abs(unitary.toarray() - full)) < 1e-12
        evolved = blocks.evolve(psi, t).amplitudes
        assert np.max(np.abs(evolved - pade @ psi.amplitudes)) < 1e-12
        assert np.max(np.abs(evolved - full @ psi.amplitudes)) < 1e-12
        assert np.array_equal(mf.evolve(h, psi, t, hbar).amplitudes, evolved)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_field_average_on_the_box_equals_the_dense_route(tmp_path, seed):
    """field_average of block components on the 52-mode box (nmax 5) gives the
    same bits as <psi|F|psi> of the same components written out dense."""
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"box": {"edge": 2.2, "max_index": 1}, "nmax": 5}))
    cfg, _ = load_config(path)
    layout = mf.build_layout(cfg.modes, cfg.nmax)
    rng = np.random.default_rng(seed)
    count = layout.n_modes
    alphas = 0.2 * rng.uniform(size=count) * np.exp(2j * np.pi * rng.uniform(size=count))
    spec = mf.CoherentBatch.make(cfg.modes,
                                 [rng.normal(size=count) + 1j * rng.normal(size=count)], [alphas])
    state = mf.coherent_state(layout, spec)
    psi = state.amplitudes
    for builder in (mf.vector_potential, mf.electric_field, mf.magnetic_field):
        for t, x in [(0.0, (0.0, 0.0, 0.0)), (rng.uniform(0, 2), rng.uniform(-1.1, 1.1, 3))]:
            got = mf.field_average(builder, state, cfg.field, t, x)
            want = np.array([np.vdot(psi, (op.toarray() @ psi[:, None])[:, 0]).real
                             for op in builder(layout, cfg.field, t, x)])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("with_atom", [False, True])
def test_verify_algebra_reads_block_supports_like_the_dense_scan(with_atom):
    """Block annihilators, one of them with an entry in a second mode's block
    and one all zero, report what full-space products of their dense copies
    give."""
    layout = mf.build_layout([mf.abstract_mode(w) for w in (1.0, 2.0, 3.0, 4.5)], 3,
                             with_atom=with_atom)
    ops = [mf.mode_annihilator(layout, k) for k in range(layout.n_modes)]
    leaked = ops[1].data.copy()
    leaked[3, 0, 2] = 0.25 - 0.5j
    ops[1] = mf.Operator(layout, leaked)
    ops[2] = mf.Operator(layout, np.zeros(layout.block_shape))
    got = mf.verify_algebra(layout, annihilators=ops)
    assert got.failed > 0
    assert got.deviations.tobytes() == dense_verify_algebra(layout, ops).tobytes()
