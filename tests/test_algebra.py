import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monofield as mf
from monofield.algebra import (
    RELATIONS,
    _lowering_block,
    _sector_pairs,
    algebra_reports_csv,
    fock_lowering,
    full_commutator_reference,
    interior_indices,
)
from conftest import block_operator, dense_verify_algebra


def abstract_layout(m, nmax, with_atom=False):
    return mf.build_layout([mf.abstract_mode(float(i + 1)) for i in range(m)], nmax,
                           with_atom=with_atom)


def dense_commutator(x, y):
    # independent of the Operator container: raw numpy on extracted arrays
    return x @ y - y @ x


class TestLadder:
    def test_lowers_with_sqrt_weights(self):
        a = fock_lowering(2)
        e1 = np.eye(3, dtype=complex)[1]
        e2 = np.eye(3, dtype=complex)[2]
        assert np.allclose(a @ e1, np.eye(3)[0])
        assert np.allclose(a @ e2, np.sqrt(2) * np.eye(3)[1])

    def test_interior_commutator_is_identity(self):
        layout = abstract_layout(2, 4)
        a = mf.ladder(layout).toarray()
        comm = dense_commutator(a, a.conj().T)
        idx = interior_indices(layout)
        dev = np.max(np.abs(comm[np.ix_(idx, idx)] - np.eye(layout.dimension)[np.ix_(idx, idx)]))
        assert dev < 1e-13

    @pytest.mark.parametrize("nmax", range(65))
    def test_lowering_matrix_matches_the_loop(self, nmax):
        loop = np.zeros((nmax + 1, nmax + 1), dtype=complex)
        for n in range(1, nmax + 1):
            loop[n - 1, n] = np.sqrt(n)
        got = fock_lowering(nmax)
        assert got.dtype == loop.dtype and got.shape == loop.shape
        # equal bits, so equal signs of every zero too
        assert got.tobytes() == loop.tobytes()
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(loop.view(float)))

    def test_full_commutator_boundary_term(self):
        nmax = 4
        a = fock_lowering(nmax)
        comm = dense_commutator(a, a.conj().T)
        # off-diagonal support vanishes structurally, not just within tolerance
        assert np.array_equal(comm - np.diag(np.diagonal(comm)),
                              np.zeros_like(comm))
        expected = np.eye(nmax + 1, dtype=complex)
        expected[nmax, nmax] = -nmax  # identity minus (N+1)|N><N|
        # diagonal values hit the reference at the sqrt(n)^2 rounding floor
        assert np.max(np.abs(comm - expected)) < 1e-14


class TestFrequencyOperator:
    def test_diagonal_pattern(self, two_tone_layout):
        om = mf.frequency_operator(two_tone_layout)
        assert om.diagonal
        assert np.allclose(om.diag().real, [1, 1, 1, 1, 2, 2, 2, 2])

    def test_nonnegative_spectrum(self, mixed_modes):
        layout = mf.build_layout(mixed_modes, 3)
        evals = np.linalg.eigvalsh(mf.frequency_operator(layout).toarray())
        assert np.all(evals >= 0)

    def test_commutes_with_hamiltonian(self, two_tone_layout):
        om = mf.frequency_operator(two_tone_layout).toarray()
        h = mf.hamiltonian(two_tone_layout).toarray()
        assert np.max(np.abs(dense_commutator(om, h))) < 1e-13


class TestModeAnnihilator:
    def test_block_action(self, two_tone_layout):
        a0 = mf.mode_annihilator(two_tone_layout, 0)
        lowered = a0.matvec(mf.basis_state(two_tone_layout, 0, 1).amplitudes)
        assert np.allclose(lowered, mf.basis_state(two_tone_layout, 0, 0).amplitudes)
        other = a0.matvec(mf.basis_state(two_tone_layout, 1, 2).amplitudes)
        assert np.all(other == 0)

    def test_cross_mode_products_exactly_zero(self):
        layout = abstract_layout(3, 4)
        a0 = mf.mode_annihilator(layout, 0)
        a1 = mf.mode_annihilator(layout, 1)
        assert (a0 @ a1).max_abs() == 0.0
        assert (a0.dag() @ a1.dag()).max_abs() == 0.0

    def test_invalid_index_rejected(self, two_tone_layout):
        with pytest.raises(ValueError, match="out of range"):
            mf.mode_annihilator(two_tone_layout, 7)

    def test_nilpotent_beyond_truncation(self):
        layout = abstract_layout(2, 3)
        a0 = mf.mode_annihilator(layout, 0)
        power = a0
        for _ in range(layout.nmax):
            power = power @ a0
        for n in range(layout.nmax + 1):
            top = power.matvec(mf.basis_state(layout, 0, n).amplitudes)
            assert np.all(top == 0)

    def test_number_operator_spectrum(self, two_tone_layout):
        a1 = mf.mode_annihilator(two_tone_layout, 1)
        nk = (a1.dag() @ a1).toarray()
        diag = np.diagonal(nk).real
        assert np.allclose(diag[4:], [0, 1, 2, 3])
        assert np.all(diag[:4] == 0)
        assert np.array_equal(nk, np.diag(np.diagonal(nk)))
        dense = a1.toarray()
        assert np.max(np.abs(dense.conj().T @ dense - nk)) < 1e-14


class TestHamiltonian:
    def test_closed_form_eigenvalue(self):
        layout = mf.build_layout([mf.abstract_mode(1.5)], 3)
        h = mf.hamiltonian(layout)
        assert mf.expect(h, mf.basis_state(layout, 0, 2)).real == pytest.approx(3.75, abs=0)

    def test_spectrum_is_exact_multiset(self, mixed_modes):
        layout = mf.build_layout(mixed_modes, 4)
        h = mf.hamiltonian(layout)
        expected = sorted(m.omega * (n + 0.5)
                          for m in layout.modes for n in range(5))
        assert np.allclose(sorted(h.diag().real), expected, atol=0)

    def test_tensor_and_ladder_constructions_agree(self):
        layout = abstract_layout(3, 4)
        h2 = mf.hamiltonian_from_frequency_operator(layout)
        h5 = mf.hamiltonian_from_mode_ladders(layout)
        assert np.max(np.abs(h2.toarray() - h5.toarray())) < 1e-12

    def test_ladder_form_matches_spectral_on_interior(self):
        layout = abstract_layout(3, 4)
        diff = mf.hamiltonian(layout).toarray() - mf.hamiltonian_from_mode_ladders(layout).toarray()
        idx = interior_indices(layout)
        assert np.max(np.abs(diff[np.ix_(idx, idx)])) < 1e-12
        # documented truncation artifact at the top rung: hbar*omega*(N+1)/2
        for k, m in enumerate(layout.modes):
            top = layout.flatten(k, layout.nmax)
            assert diff[top, top].real == pytest.approx(m.omega * 2.5, abs=1e-12)

    def test_vacuum_energy_two_modes(self, two_tone_layout):
        psi = mf.superposition(two_tone_layout, {(0, 0): 1, (1, 0): 1})
        h = mf.hamiltonian(two_tone_layout)
        assert mf.expect(h, psi).real == pytest.approx(0.75, abs=1e-12)

    def test_atom_layout_rejected(self, mixed_modes):
        layout = mf.build_layout(mixed_modes, 2, with_atom=True)
        with pytest.raises(ValueError, match="atom"):
            mf.hamiltonian(layout)

    def test_hermitian(self, mixed_modes):
        layout = mf.build_layout(mixed_modes, 3)
        h = mf.hamiltonian(layout).toarray()
        assert np.max(np.abs(h - h.conj().T)) < 1e-13


class TestMomentum:
    def test_single_mode_eigenvalue(self):
        layout = mf.build_layout([mf.mode(+1, (0.0, 0.0, 2.0))], 2)
        _, _, pz = mf.momentum(layout)
        psi = mf.basis_state(layout, 0, 0)
        assert mf.expect(pz, psi).real == pytest.approx(1.0, abs=0)

    def test_commutes_with_hamiltonian(self, mixed_modes):
        layout = mf.build_layout(mixed_modes, 3)
        h = mf.hamiltonian(layout).toarray()
        for p in mf.momentum(layout):
            pm = p.toarray()
            assert np.max(np.abs(dense_commutator(h, pm))) < 1e-13
            assert np.max(np.abs(pm - pm.conj().T)) < 1e-13

    def test_abstract_modes_rejected(self, two_tone_layout):
        with pytest.raises(ValueError, match="abstract"):
            mf.momentum(two_tone_layout)


class TestVerifyAlgebra:
    def test_default_report_set(self):
        layout = abstract_layout(4, 5)
        table = mf.verify_algebra(layout)
        assert len(table) == 3 * 16
        assert table.deviations.shape == (4, 4, 3)
        assert table.failed == 0 and table.passed.all()
        cross = ~np.eye(4, dtype=bool)
        assert np.all(table.deviations[cross] == 0.0)
        assert np.all(np.diagonal(table.deviations[:, :, 0]) < 1e-13)
        assert not table.deviations.flags.writeable

    def test_boundary_term_value(self):
        layout = abstract_layout(2, 5)
        a0 = mf.mode_annihilator(layout, 0)
        comm = (a0 @ a0.dag()).toarray() - (a0.dag() @ a0).toarray()
        ref = full_commutator_reference(layout, 0).toarray()
        # support is exactly the diagonal of sector 0; values land within ulps
        assert np.array_equal(comm != 0, ref != 0)
        assert np.max(np.abs(comm - ref)) < 1e-14
        top = layout.flatten(0, 5)
        # boundary term -(N+1)|N><N| on top of the sector projector
        assert comm[top, top].real == pytest.approx(-5.0, abs=1e-14)

    def test_corrupted_operator_fails(self):
        layout = abstract_layout(2, 3)
        ops = [mf.mode_annihilator(layout, k) for k in range(2)]
        bad = ops[0].data.copy()
        bad[0, 0, -1] = 1e-3
        ops[0] = mf.Operator(layout, bad)
        table = mf.verify_algebra(layout, annihilators=ops)
        assert table.failed > 0 and not table.passed.all()

    def test_csv_export(self, tmp_path):
        layout = abstract_layout(3, 2)
        ops = [mf.mode_annihilator(layout, k) for k in range(3)]
        # an entry in mode 2's block: some cross pairs with mode 2 fail
        bad = ops[0].data.copy()
        bad[2, 0, -1] = 1e-3
        ops[0] = mf.Operator(layout, bad)
        table = mf.verify_algebra(layout, annihilators=ops)
        path = tmp_path / "algebra.csv"
        algebra_reports_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "relation,k,l,subspace,deviation,pass"
        # one row per (k, l, relation), formatted from the table entry by entry
        assert lines[1:] == [
            f"{name},{k},{l},{'interior' if k == l and r == 0 else 'full'},"
            f"{float(table.deviations[k, l, r])!r},{str(bool(table.passed[k, l, r])).lower()}"
            for k in range(3) for l in range(3) for r, name in enumerate(RELATIONS)]
        assert not table.passed[0, 2].all() and table.passed[0, 1].all()


def _in_sector_block(a, b):
    a[2 * b:3 * b, 2 * b:3 * b] += 1e-7 * np.arange(b * b).reshape(b, b)


def _extra_entry(a, b):
    a[3 * b + 1, 3 * b + 3] = 0.37 + 0.2j


def _all_zero(a, b):
    a[:] = 0.0


class TestVerifyAlgebraMatchesDense:
    """The products of stacked mode blocks report exactly what full-space
    products give."""

    @staticmethod
    def assert_matches(layout, ops):
        got = mf.verify_algebra(layout, annihilators=ops).deviations
        assert got.tobytes() == dense_verify_algebra(layout, ops).tobytes()

    @pytest.mark.parametrize("with_atom", [False, True])
    def test_exact_operators(self, with_atom):
        layout = abstract_layout(5, 4, with_atom)
        ops = [mf.mode_annihilator(layout, k) for k in range(5)]
        self.assert_matches(layout, ops)

    @pytest.mark.parametrize("with_atom", [False, True])
    @pytest.mark.parametrize("k, edit", [(2, _in_sector_block), (3, _extra_entry),
                                         (1, _all_zero)])
    def test_corrupted_operators(self, with_atom, k, edit):
        layout = abstract_layout(5, 4, with_atom)
        ops = [mf.mode_annihilator(layout, i) for i in range(5)]
        a = ops[k].toarray()
        edit(a, layout.fock_dim)
        ops[k] = block_operator(layout, a)
        assert mf.verify_algebra(layout, annihilators=ops).failed > 0
        self.assert_matches(layout, ops)

    @pytest.mark.parametrize("with_atom", [False, True])
    def test_block_kind_leak_fails(self, with_atom):
        """A block-kind annihilator with a second nonzero block, on another
        mode's sector, overlaps that mode's support: the pair is multiplied,
        not decided from disjoint supports."""
        layout = abstract_layout(5, 4, with_atom)
        ops = [mf.mode_annihilator(layout, i) for i in range(5)]
        blocks = ops[1].data.copy()
        # a scaled ladder: every product entry is one term, so no rounding
        # order can part the two routes
        blocks[3] = 2.0 ** -10 * blocks[1]
        ops[1] = mf.Operator(layout, blocks)
        assert ops[1].data.shape == layout.block_shape
        assert not mf.verify_algebra(layout, annihilators=ops).passed[1, 3].all()
        self.assert_matches(layout, ops)

    def test_overflowing_products_give_the_dense_nan(self):
        """Finite entries whose products overflow: inf - inf in the diagonal
        pair's commutator and in both product differences is NaN on either
        route, so those differences are taken, not assumed zero."""
        layout = abstract_layout(3, 3)
        ops = [mf.mode_annihilator(layout, i) for i in range(3)]
        blocks = 1e200 * ops[1].data
        blocks[1, 0, 1] = -3e200
        ops[1] = mf.Operator(layout, blocks)
        with np.errstate(over="ignore", invalid="ignore"):
            got = mf.verify_algebra(layout, annihilators=ops).deviations
            want = dense_verify_algebra(layout, ops)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[1, 1]).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_annihilator_rejected(self, bad):
        layout = abstract_layout(3, 2)
        ops = [mf.mode_annihilator(layout, i) for i in range(3)]
        a = ops[1].toarray()
        a[3, 4] = bad
        ops[1] = block_operator(layout, a)
        with pytest.raises(ValueError, match="non-finite"):
            mf.verify_algebra(layout, annihilators=ops)


def _axis_values(rng, size):
    """Random entries, each real or imaginary, about a quarter of them zero."""
    values = rng.normal(size=size) * rng.choice([1.0, -1.0, 1j, -1j], size=size)
    values[rng.random(size) < 0.25] = 0.0
    return values


def _monomial_block(rng, size):
    """A block with at most one nonzero per row and column, each real or
    imaginary: every entry of a product of such blocks is one real product,
    which rounds the same in any matmul, so the stacked pass and the dense
    oracle agree bit for bit."""
    return np.eye(size)[rng.permutation(size)] * _axis_values(rng, size)[:, None]


def _mixed_annihilators(layout, rng):
    """The ladders, with one to three of them corrupted: one or two random
    mode blocks replaced by monomial blocks (sector mixing where one is
    another mode's), or the whole operator replaced by a diagonal one or
    by zero."""
    m, size, _ = layout.block_shape
    ops = [mf.mode_annihilator(layout, k) for k in range(m)]
    for k in rng.choice(m, size=rng.integers(1, 4), replace=False).tolist():
        kind = rng.integers(4)
        if kind < 2:  # sector mixing
            blocks = ops[k].data.copy()
            for j in rng.choice(m, size=kind + 1, replace=False).tolist():
                blocks[j] = _monomial_block(rng, size)
            ops[k] = mf.Operator(layout, blocks)
        elif kind == 2:
            ops[k] = mf.Operator.from_diagonal(layout, _axis_values(rng, layout.dimension))
        else:
            ops[k] = mf.Operator.from_diagonal(layout, np.zeros(layout.dimension))
    return ops


class TestSectorPairs:
    """_sector_pairs gives every ordered pair of kept blocks on one mode, a
    block with itself included, once: the pairs a double loop finds."""

    @staticmethod
    def kept_modes(kept):
        """The mode of each kept block, in the (owner, mode) order of
        verify_algebra; every operator keeps its own mode."""
        return np.nonzero(kept | np.eye(len(kept), dtype=bool))[1]

    @staticmethod
    def assert_pairs(modes):
        left, right = _sector_pairs(modes)
        pairs = sorted(zip(left.tolist(), right.tolist()))
        assert pairs == [(i, j) for i in range(len(modes)) for j in range(len(modes))
                         if modes[i] == modes[j]]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_kept_blocks(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        kept = rng.random((m, m)) < rng.random()
        kept[:, rng.integers(m)] = True  # a mode every operator keeps
        self.assert_pairs(self.kept_modes(kept))

    @pytest.mark.parametrize("m", [1, 2, 9])
    def test_identity_layout_pairs_each_block_with_itself(self, m):
        self.assert_pairs(self.kept_modes(np.zeros((m, m), dtype=bool)))


class TestStackedPass:
    """The annihilators taken in chunks and every mode pair multiplied as one
    stack give, field by field, the dense oracle's deviations."""

    @staticmethod
    def assert_repr_equal(layout, ops):
        got = mf.verify_algebra(layout, annihilators=ops)
        want = dense_verify_algebra(layout, ops)
        assert [repr(x) for x in got.deviations.ravel().tolist()] \
            == [repr(x) for x in want.ravel().tolist()]
        return got

    @staticmethod
    def budget(layout, operators):
        """A byte budget whose chunks hold ``operators`` block stacks."""
        m, size, _ = layout.block_shape
        return operators * 16 * m * size * size

    @pytest.mark.parametrize("with_atom", [False, True])
    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_ladders(self, m, with_atom):
        layout = abstract_layout(m, 3, with_atom)
        table = self.assert_repr_equal(layout, [mf.mode_annihilator(layout, k)
                                                for k in range(m)])
        assert table.failed == 0

    @pytest.mark.parametrize("with_atom", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_corruptions(self, seed, with_atom):
        rng = np.random.default_rng([seed, with_atom])
        layout = abstract_layout(int(rng.integers(5, 8)), int(rng.integers(1, 5)), with_atom)
        assert self.assert_repr_equal(layout, _mixed_annihilators(layout, rng)).failed > 0

    def test_diagonal_and_zero_annihilators(self):
        layout = abstract_layout(6, 3, with_atom=True)
        rng = np.random.default_rng(5)
        ops = [mf.mode_annihilator(layout, k) for k in range(6)]
        ops[1] = mf.Operator.from_diagonal(layout, _axis_values(rng, layout.dimension))
        ops[4] = mf.Operator.from_diagonal(layout, np.zeros(layout.dimension))
        table = self.assert_repr_equal(layout, ops)
        # a zero own block reads |0 - 1| on the interior kets
        assert table.deviations[4, 4, 0] == 1.0

    @pytest.mark.parametrize("operators", [1, 3, pytest.param(None, id="one_block")])
    @pytest.mark.parametrize("with_atom", [False, True])
    def test_chunks_of_one_and_three_operators(self, monkeypatch, operators, with_atom):
        """``None`` is a budget of one block, 16 s^2 bytes: every chunk of
        block pairs holds a single pair, a self pair or a cross pair."""
        rng = np.random.default_rng([operators or 7, with_atom])
        layout = abstract_layout(7, 3, with_atom)
        ops = _mixed_annihilators(layout, rng)
        whole = mf.verify_algebra(layout, annihilators=ops).deviations
        size = layout.block_shape[-1]
        budget = 16 * size * size if operators is None else self.budget(layout, operators)
        monkeypatch.setattr(mf.algebra, "ALGEBRA_BLOCK_BYTES", budget)
        assert self.assert_repr_equal(layout, ops).deviations.tobytes() == whole.tobytes()
        assert (whole[~np.eye(7, dtype=bool)] > 0).any()  # some cross pair meets
        defaults = mf.verify_algebra(layout).deviations
        monkeypatch.undo()
        assert defaults.tobytes() == mf.verify_algebra(layout).deviations.tobytes()

    @staticmethod
    def faults(layout, bad, other):
        """The ladders with annihilator ``bad`` holding an inf and ``other``
        living on another layout of the same shape."""
        ops = [mf.mode_annihilator(layout, k) for k in range(layout.n_modes)]
        blocks = ops[bad].data.copy()
        blocks[bad, 0, 1] = np.inf
        ops[bad] = mf.Operator(layout, blocks)
        shifted = mf.build_layout([mf.abstract_mode(m.omega + 1.0) for m in layout.modes],
                                  layout.nmax)
        ops[other] = mf.Operator(shifted, ops[other].data)
        return ops

    @pytest.mark.parametrize("operators", [1, 3, 7])
    def test_non_finite_before_a_later_layout_mismatch(self, monkeypatch, operators):
        layout = abstract_layout(7, 2)
        monkeypatch.setattr(mf.algebra, "ALGEBRA_BLOCK_BYTES", self.budget(layout, operators))
        with pytest.raises(ValueError, match="^annihilator 1 has non-finite entries$"):
            mf.verify_algebra(layout, annihilators=self.faults(layout, bad=1, other=2))

    @pytest.mark.parametrize("operators", [1, 3, 7])
    def test_layout_mismatch_before_later_non_finite_entries(self, monkeypatch, operators):
        layout = abstract_layout(7, 2)
        monkeypatch.setattr(mf.algebra, "ALGEBRA_BLOCK_BYTES", self.budget(layout, operators))
        with pytest.raises(ValueError, match="^annihilator 1 lives on a different layout$"):
            mf.verify_algebra(layout, annihilators=self.faults(layout, bad=2, other=1))


def _random_layout(rng, with_atom):
    """1-40 modes, propagating ones of random wavevector and abstract ones,
    at nmax 1-6."""
    modes = [mf.mode(int(rng.choice([1, -1])), rng.normal(size=3)) if rng.random() < 0.7
             else mf.abstract_mode(float(rng.uniform(0.5, 3.0)), j=j)
             for j in range(int(rng.integers(1, 41)))]
    return mf.build_layout(modes, int(rng.integers(1, 7)), with_atom=with_atom)


class TestStructuralDefault:
    """The default check takes its blocks from the ladder's stack by
    structure: that verifies the operators mode_annihilator builds, since
    each is the lowering block on its own mode and exact zeros elsewhere."""

    @pytest.mark.parametrize("with_atom", [False, True])
    @pytest.mark.parametrize("nmax", range(1, 7))
    def test_mode_annihilator_is_its_own_lowering_block(self, nmax, with_atom):
        layout = abstract_layout(4, nmax, with_atom)
        for k in range(4):
            blocks = mf.mode_annihilator(layout, k).as_blocks()
            assert blocks.shape == layout.block_shape
            assert np.array_equal(blocks[k], _lowering_block(layout))
            others = np.delete(blocks, k, axis=0)
            assert not others.view(float).any() and not np.signbit(others.view(float)).any()

    @pytest.mark.parametrize("with_atom", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_default_equals_the_injected_library_operators(self, seed, with_atom):
        layout = _random_layout(np.random.default_rng([seed, with_atom]), with_atom)
        injected = [mf.mode_annihilator(layout, k) for k in range(layout.n_modes)]
        want = mf.verify_algebra(layout, annihilators=injected).deviations
        assert np.array_equal(mf.verify_algebra(layout).deviations, want)

    @pytest.mark.parametrize("with_atom", [False, True])
    def test_one_stack_per_chunk(self, monkeypatch, with_atom):
        layout = abstract_layout(40, 6, with_atom)
        m, size, _ = layout.block_shape
        monkeypatch.setattr(mf.algebra, "ALGEBRA_BLOCK_BYTES", 16 * m * size * size)
        injected = [mf.mode_annihilator(layout, k) for k in range(m)]
        want = mf.verify_algebra(layout, annihilators=injected).deviations
        assert np.array_equal(mf.verify_algebra(layout).deviations, want)

    def test_builds_no_mode_annihilator(self, monkeypatch):
        def refused(layout, k):
            raise AssertionError("the default check built a mode annihilator")

        layout = abstract_layout(6, 3, with_atom=True)
        want = mf.verify_algebra(layout).deviations
        monkeypatch.setattr(mf.algebra, "mode_annihilator", refused)
        assert mf.verify_algebra(layout).deviations.tobytes() == want.tobytes()


def _reference_reports_csv(table, path):
    """The writer that formatted every row, one (k, l) pair at a time, kept
    as the oracle of the template writer."""
    verdicts = {True: "true", False: "false"}
    zero_tail = f",full,0.0,{verdicts[0.0 < table.tol]}\n"
    labels = [str(l) for l in range(len(table.deviations))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("relation,k,l,subspace,deviation,pass\n")
        for k, (devs, passed) in enumerate(zip(table.deviations, table.passed)):
            heads = [f"{name},{k}," for name in RELATIONS]
            comm, aa, adad = heads
            diagonal = labels[k]
            lines = []
            for l, dev, verdict in zip(labels, devs.tolist(), passed.tolist()):
                if dev == [0.0, 0.0, 0.0] and l != diagonal:
                    lines.append(f"{comm}{l}{zero_tail}{aa}{l}{zero_tail}{adad}{l}{zero_tail}")
                    continue
                subspaces = ("interior" if l == diagonal else "full", "full", "full")
                lines += [f"{head}{l},{subspace},{d!r},{verdicts[v]}\n"
                          for head, subspace, d, v in zip(heads, subspaces, dev, verdict)]
            fh.write("".join(lines))


class TestReportsCsvBytes:
    """algebra_reports_csv writes, byte for byte, what the row-by-row writer did."""

    VALUES = [np.nan, -0.0, 1e-300, 5e-18, 3e-13, 0.25, 7.0, np.inf]

    @staticmethod
    def assert_same_bytes(table, tmp_path):
        algebra_reports_csv(table, tmp_path / "got.csv")
        _reference_reports_csv(table, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("m, seed", [(1, 0), (1, 1), (2, 2), (3, 3), (7, 4), (7, 5),
                                         (16, 6), (101, 7), (130, 8)])
    def test_random_tables(self, tmp_path, m, seed):
        rng = np.random.default_rng(seed)
        deviations = np.zeros((m, m, 3))
        hits = rng.random(deviations.shape) < rng.choice([0.02, 0.3, 1.0])
        deviations[hits] = rng.choice(self.VALUES, size=int(hits.sum()))
        deviations[rng.integers(m)] = 0.0  # an all-zero row of pairs
        for k in range(m):  # nonzero cross cells at the first and the last l
            deviations[k, 0 if k else -1, rng.integers(3)] = rng.choice(self.VALUES[2:])
            deviations[k, -1 if k < m - 1 else 0, rng.integers(3)] = rng.choice(self.VALUES[2:])
        for tol in (1e-12, 1e-17, 0.5, 0.0):
            self.assert_same_bytes(mf.AlgebraTable(tol, deviations.copy()), tmp_path)

    @pytest.mark.parametrize("value", [np.nan, -0.0, 1e-300])
    @pytest.mark.parametrize("m", [1, 2, 5, 120])
    def test_one_kind_of_value_everywhere(self, tmp_path, m, value):
        """Cross pairs of negative zeros read 0.0 as pairs of zeros do; NaN
        fails, and the diagonal keeps its repr."""
        self.assert_same_bytes(mf.AlgebraTable(1e-12, np.full((m, m, 3), value)), tmp_path)

    @pytest.mark.parametrize("tol", [1e-12, 1e-17])
    def test_verified_layout(self, tmp_path, tol):
        """A table verify_algebra fills: the diagonal alone is formatted,
        and at 1e-17 some of its relations fail."""
        table = mf.verify_algebra(abstract_layout(103, 3, with_atom=True), tol=tol)
        assert (table.failed > 0) == (tol < 1e-12)
        self.assert_same_bytes(table, tmp_path)


@st.composite
def overwritten_annihilators(draw):
    """2-4 abstract modes at nmax 2-3, with or without the atom, one block
    annihilator with a few entries overwritten and, maybe, one annihilator
    replaced by a diagonal one with some zero entries."""
    m = draw(st.integers(2, 4), label="modes")
    layout = abstract_layout(m, draw(st.integers(2, 3), label="nmax"),
                             draw(st.booleans(), label="with_atom"))
    ops = [mf.mode_annihilator(layout, i) for i in range(m)]
    k = draw(st.integers(0, m - 1), label="k")
    data = ops[k].data.copy()
    index = st.tuples(*(st.integers(0, n - 1) for n in data.shape))
    value = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    for at, x in draw(st.lists(st.tuples(index, value), min_size=1, max_size=4),
                      label="entries"):
        data[at] = x
    ops[k] = mf.Operator(layout, data)
    d = draw(st.none() | st.integers(0, m - 1), label="diagonal")
    if d is not None:
        diag = draw(st.lists(st.just(0j) | value, min_size=layout.dimension,
                             max_size=layout.dimension), label="diagonal entries")
        diag[draw(st.integers(0, layout.dimension - 1), label="zero entry")] = 0j
        ops[d] = mf.Operator.from_diagonal(layout, diag)
    return layout, ops


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=overwritten_annihilators())
def test_verify_algebra_matches_dense_on_overwritten_entries(case):
    """The same verdicts as the dense oracle.  A cross pair whose kets
    meet nowhere reports the oracle's exact 0.0, even where the two share
    a mode block; every other deviation agrees to rounding, since stacked
    block products group and fuse their terms differently from D x D
    ones.  Entries are at most 2 in modulus, so that rounding stays far
    below 1e-13."""
    layout, ops = case
    got = mf.verify_algebra(layout, annihilators=ops)
    want = dense_verify_algebra(layout, ops)
    assert np.array_equal(got.passed, want < 1e-12)
    nonzero = [op.toarray() != 0 for op in ops]
    supports = [nz.any(axis=0) | nz.any(axis=1) for nz in nonzero]
    for k, l in np.ndindex(got.deviations.shape[:2]):
        if k != l and not np.any(supports[k] & supports[l]):
            assert [repr(x) for x in got.deviations[k, l].tolist()] \
                == [repr(x) for x in want[k, l].tolist()] == ["0.0"] * 3
        else:
            assert np.all(np.abs(got.deviations[k, l] - want[k, l]) <= 1e-13)


@pytest.mark.parametrize("with_atom", [False, True])
def test_interior_indices_match_unflatten_loop(with_atom):
    layout = abstract_layout(3, 4, with_atom)
    keep = [i for i in range(layout.dimension)
            if divmod(i, layout.fock_dim)[1] <= layout.nmax - 1]
    got = interior_indices(layout)
    assert np.array_equal(got, np.array(keep, dtype=int))
    assert got.dtype == np.array(keep, dtype=int).dtype
