import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monofield as mf
from monofield.algebra import (
    RELATIONS,
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
        lowered = mf.apply(a0, mf.basis_state(two_tone_layout, 0, 1))
        assert np.allclose(lowered.amplitudes,
                           mf.basis_state(two_tone_layout, 0, 0).amplitudes)
        other = mf.apply(a0, mf.basis_state(two_tone_layout, 1, 2))
        assert np.all(other.amplitudes == 0)

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
        power = mf.Operator.identity(layout)
        for _ in range(layout.nmax + 1):
            power = power @ a0
        for n in range(layout.nmax + 1):
            top = mf.apply(power, mf.basis_state(layout, 0, n))
            assert np.all(top.amplitudes == 0)

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
        assert (h2 - h5).max_abs() < 1e-12

    def test_ladder_form_matches_spectral_on_interior(self):
        layout = abstract_layout(3, 4)
        diff = (mf.hamiltonian(layout) - mf.hamiltonian_from_mode_ladders(layout)).toarray()
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
        assert mf.hamiltonian(layout).hermitian_deviation() < 1e-13


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
            assert np.max(np.abs(dense_commutator(h, p.toarray()))) < 1e-13
            assert p.hermitian_deviation() < 1e-13

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
        comm = (a0 @ a0.dag() - a0.dag() @ a0).toarray()
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
    """The support-restricted checks report exactly what full-space products give."""

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_annihilator_rejected(self, bad):
        layout = abstract_layout(3, 2)
        ops = [mf.mode_annihilator(layout, i) for i in range(3)]
        a = ops[1].toarray()
        a[3, 4] = bad
        ops[1] = block_operator(layout, a)
        with pytest.raises(ValueError, match="non-finite"):
            mf.verify_algebra(layout, annihilators=ops)


@st.composite
def overwritten_annihilators(draw):
    """2-4 abstract modes at nmax 2-3, with or without the atom, and one
    block annihilator with a few entries overwritten."""
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
    return layout, ops


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=overwritten_annihilators())
def test_verify_algebra_matches_dense_on_overwritten_entries(case):
    """The same verdicts as the dense oracle.  A cross pair with disjoint
    supports reports the oracle's exact 0.0; every other deviation
    agrees to rounding, since products restricted to a support group and
    fuse their terms differently from D x D ones.  Entries are at most 2 in
    modulus, so that rounding stays far below 1e-13."""
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
