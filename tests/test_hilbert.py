import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monofield as mf
from monofield.cli import ConfigError, load_config
from monofield.fields import read_states
from conftest import block_operator, random_hermitian, random_state


def abstract_layout(m, nmax, atom=False):
    modes = [mf.abstract_mode(float(i + 1)) for i in range(m)]
    return mf.build_layout(modes, nmax, with_atom=atom)


class TestModeLabel:
    def test_omega_computed_from_kappa(self):
        m = mf.mode(+1, (0.0, 0.0, 2.0), c=1.0)
        assert m.omega == 2.0
        assert not m.abstract

    def test_omega_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            mf.mode(+1, (0.0, 0.0, 2.0), omega=3.0)

    def test_omega_within_tolerance_accepted(self):
        m = mf.mode(+1, (0.0, 0.0, 2.0), omega=2.0 + 1e-13)
        assert m.omega == 2.0

    def test_speed_of_light_scales_omega(self):
        m = mf.mode(+1, (3.0, 0.0, 4.0), c=2.0)
        assert m.omega == pytest.approx(10.0, abs=0)

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError, match="omega"):
            mf.abstract_mode(-1.0)

    def test_bad_polarization_rejected(self):
        with pytest.raises(ValueError, match="polarization"):
            mf.ModeLabel(s=2, kappa=(0.0, 0.0, 1.0), omega=1.0)

    def test_equality_is_all_four_fields(self):
        a = mf.abstract_mode(1.0, j=0)
        b = mf.abstract_mode(1.0, j=1)
        assert a != b
        assert a == mf.abstract_mode(1.0, j=0)

    def test_abstract_flag(self):
        assert mf.abstract_mode(1.5).abstract
        assert not mf.mode(+1, (1.0, 0.0, 0.0)).abstract

    @pytest.mark.parametrize("kappa", [(1e-200, 0.0, 0.0), (1e200, 1e200, 0.0),
                                       (0.0, -1e-170, 1e-170), (-1e160, 0.0, 1e160)])
    def test_wavevector_norm_out_of_the_float_range_refused(self, kappa):
        """A finite nonzero wavevector whose squared norm under- or overflows
        is named, not called zero or given an infinite frequency."""
        with pytest.raises(ValueError) as err:
            mf.mode(1, kappa)
        assert str(err.value) == f"the norm of wavevector {kappa!r} is out of the float range"

    def test_zero_and_non_finite_wavevectors_keep_their_refusals(self):
        with pytest.raises(ValueError, match="nonzero wavevector; use abstract_mode"):
            mf.mode(1, (0.0, -0.0, 0.0))
        for kappa in [(np.inf, 1.0, 0.0), (np.nan, 1e-200, 0.0)]:
            with pytest.raises(ValueError, match="kappa must be a finite 3-vector"):
                mf.mode(1, kappa)


class TestBuildLayout:
    def test_dimension_four_modes(self):
        assert abstract_layout(4, 3).dimension == 16

    def test_dimension_with_atom(self):
        assert abstract_layout(2, 5, atom=True).dimension == 24

    def test_nmax_zero_rejected(self):
        with pytest.raises(ValueError, match="nmax"):
            abstract_layout(1, 0)

    @pytest.mark.parametrize("nmax", [True, False, 2.5, 2.0, np.bool_(True)])
    def test_nmax_bool_or_fractional_rejected(self, nmax):
        modes = [mf.abstract_mode(1.0), mf.abstract_mode(2.0)]
        for build in (mf.build_layout, mf.build_standard_layout):
            with pytest.raises(ValueError) as err:
                build(modes, nmax)
            assert str(err.value) == f"nmax must be an integer >= 1, got {nmax!r}"
        assert mf.build_standard_layout(modes, np.int64(2)).nmax == 2

    def test_duplicate_mode_rejected_with_label(self):
        dup = mf.abstract_mode(1.0)
        with pytest.raises(ValueError, match="duplicate") as err:
            mf.build_layout([dup, mf.abstract_mode(2.0), dup], 2)
        assert "omega=1.0" in str(err.value)

    def test_empty_mode_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mf.build_layout([], 2)

    def test_dimension_linear_in_modes(self):
        dims = [abstract_layout(m, 3).dimension for m in (1, 2, 3, 4)]
        assert dims == [4, 8, 12, 16]

    @given(m=st.integers(1, 5), nmax=st.integers(1, 6), atom=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_index_bijection(self, m, nmax, atom):
        layout = abstract_layout(m, nmax, atom)
        seen = set()
        for k in range(m):
            for n in range(nmax + 1):
                for a in range(2 if atom else 1):
                    i = layout.flatten(k, n, a)
                    rest, photons = divmod(i, layout.fock_dim)
                    assert (*divmod(rest, layout.levels), photons) == (k, a, n)
                    assert layout.view(np.arange(layout.dimension))[a, k, n] == i
                    assert layout.blocks_of(np.arange(layout.dimension))[
                        k, a * (nmax + 1) + n] == i
                    seen.add(i)
        assert seen == set(range(layout.dimension))


class TestBlockRows:
    @pytest.mark.parametrize("atom", [False, True])
    def test_blocks_round_trip_as_views_with_leading_axes(self, atom, rng):
        layout = abstract_layout(3, 2, atom)
        stack = rng.normal(size=(4, 5, layout.dimension))
        rows = layout.blocks_of(stack)
        assert rows.shape == (4, 5, *layout.block_shape[:2])
        assert np.shares_memory(rows, stack)
        back = layout.from_blocks(rows)
        assert np.array_equal(back, stack) and np.shares_memory(back, stack)
        for t in np.ndindex(4, 5):
            assert np.array_equal(rows[t], layout.blocks_of(stack[t]))
            assert np.array_equal(layout.from_blocks(rows[t]), stack[t])

    def test_view_of_a_stack_writes_the_flat_arrays(self):
        layout = abstract_layout(3, 2, atom=True)
        stack = np.zeros((2, layout.dimension))
        layout.view(stack)[:, 1, 2, 0] = 7.0
        assert np.flatnonzero(stack[0]).tolist() == [layout.flatten(2, 0, 1)]
        assert np.array_equal(stack[0], stack[1])


class TestBasisState:
    def test_ground_is_e0(self, two_tone_layout):
        psi = mf.basis_state(two_tone_layout, 0, 0)
        assert psi.norm == 1.0
        assert psi.amplitudes[0] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_declared_ordering(self):
        layout = abstract_layout(2, 2)
        psi = mf.basis_state(layout, 1, 2)
        assert np.flatnonzero(psi.amplitudes).tolist() == [5]

    def test_atom_level_without_atom_factor(self, two_tone_layout):
        with pytest.raises(ValueError, match="atom"):
            mf.basis_state(two_tone_layout, 0, 0, atom_level=1)

    def test_out_of_range_rejected(self, two_tone_layout):
        with pytest.raises(IndexError):
            mf.basis_state(two_tone_layout, 5, 0)
        with pytest.raises(IndexError):
            mf.basis_state(two_tone_layout, 0, 99)


class TestSuperposition:
    def test_equal_amplitudes(self, two_tone_layout):
        psi = mf.superposition(two_tone_layout, {(0, 0): 1, (1, 0): 1})
        assert psi.amplitude(0, 0) == pytest.approx(1 / np.sqrt(2))
        assert psi.amplitude(1, 0) == pytest.approx(1 / np.sqrt(2))

    def test_three_four_normalization(self, two_tone_layout):
        psi = mf.superposition(two_tone_layout, {(0, 0): 3, (0, 1): 4j})
        assert abs(psi.amplitude(0, 0)) ** 2 == pytest.approx(9 / 25)
        assert psi.norm == pytest.approx(1.0, abs=1e-12)

    def test_zero_map_rejected(self, two_tone_layout):
        with pytest.raises(ValueError, match="nonzero"):
            mf.superposition(two_tone_layout, {(0, 0): 0.0})

    def test_vacuum_subspace_state(self, two_tone_layout):
        psi = mf.superposition(two_tone_layout, {(0, 0): 1, (1, 0): 1j})
        for k in range(2):
            for n in range(1, 4):
                assert psi.amplitude(k, n) == 0

    def test_normalize_idempotent(self, two_tone_layout, rng):
        psi = random_state(two_tone_layout, rng)
        again = psi.normalize()
        assert np.allclose(again.amplitudes, psi.amplitudes, atol=1e-15)
        assert abs(mf.inner(psi, psi) - 1) < 1e-12


class TestBrackets:
    def test_identity_expectation(self, two_tone_layout, rng):
        psi = random_state(two_tone_layout, rng)
        assert mf.expect(mf.Operator.identity(two_tone_layout), psi) == pytest.approx(1.0)

    def test_hamiltonian_eigenvalue(self, two_tone_layout):
        h = mf.hamiltonian(two_tone_layout)
        psi = mf.basis_state(two_tone_layout, 1, 2)
        # hbar*omega*(n + 1/2) with omega = 2, n = 2
        assert mf.expect(h, psi) == pytest.approx(5.0, abs=1e-12)

    def test_expect_matches_dense_oracle(self, rng):
        layout = abstract_layout(3, 3)
        a = random_hermitian(layout, rng)
        psi = random_state(layout, rng)
        oracle = np.vdot(psi.amplitudes, a.toarray() @ psi.amplitudes)
        assert abs(mf.expect(a, psi) - oracle) < 1e-12
        assert abs(mf.expect(a, psi).imag) < 1e-12

    def test_expect_consistent_with_inner_apply(self, two_tone_layout, rng):
        a = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        assert mf.expect(a, psi) == mf.inner(psi, mf.apply(a, psi))

    def test_layout_mismatch_rejected(self, two_tone_layout, rng):
        other = abstract_layout(3, 3)
        x = random_state(two_tone_layout, rng)
        y = random_state(other, rng)
        with pytest.raises(ValueError, match="mismatch"):
            mf.inner(x, y)
        with pytest.raises(ValueError, match="mismatch"):
            mf.apply(mf.Operator.identity(other), x)


class TestOperatorStorage:
    def test_hermitian_predicate(self, two_tone_layout, rng):
        a = random_hermitian(two_tone_layout, rng)
        assert a.is_hermitian()
        skew = 1j * a
        assert not skew.is_hermitian()

    def test_shape_mismatch_rejected(self, two_tone_layout):
        with pytest.raises(ValueError, match="shape"):
            mf.Operator(two_tone_layout, np.eye(3))

    def test_dense_matrix_rejected(self, two_tone_layout):
        """A (D, D) array is no storage kind, even the zero matrix."""
        with pytest.raises(ValueError, match=r"shape \(8, 8\) is neither"):
            mf.Operator(two_tone_layout, np.zeros((two_tone_layout.dimension,) * 2))


# the layout line of a file written for two_tone_layout
LAYOUT_LINE = "# monofield layout M=2 nmax=3 A=1 order=mode-atom-n"


class TestSerialization:
    def test_state_roundtrip(self, two_tone_layout, rng, tmp_path):
        psi = random_state(two_tone_layout, rng)
        path = tmp_path / "state.csv"
        mf.hilbert.save_state(psi, path)
        back = mf.hilbert.load_state(path, two_tone_layout)
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_operator_roundtrip(self, two_tone_layout, rng, tmp_path):
        a = random_hermitian(two_tone_layout, rng)
        path = tmp_path / "op.csv"
        mf.hilbert.save_operator(a, path)
        back = mf.hilbert.load_operator(path, two_tone_layout)
        assert np.array_equal(back.toarray(), a.toarray())

    @pytest.mark.parametrize("kind", ["diagonal", "block"])
    def test_operator_file_is_that_of_its_dense_array(self, kind, rng, tmp_path):
        """Each kind writes the nonzero entries of its toarray() in row-major
        order, signed zeros included."""
        layout = abstract_layout(3, 2, atom=True)
        shape = {"diagonal": (layout.dimension,), "block": layout.block_shape}[kind]
        parts = rng.normal(size=(*shape, 2))
        # exact zeros of either sign in either part, some whole entries zero
        parts[rng.uniform(size=parts.shape) < 0.3] = 0.0
        parts[rng.uniform(size=parts.shape) < 0.3] = -0.0
        op = mf.Operator(layout, parts.view(complex)[..., 0])
        assert op.kind == kind
        mf.hilbert.save_operator(op, tmp_path / "stored.csv")
        matrix = op.toarray()
        rows, cols = np.nonzero(matrix)
        want = "# monofield layout M=3 nmax=2 A=2 order=mode-atom-n\nrow,col,re,im\n" + "".join(
            f"{r},{c},{z.real!r},{z.imag!r}\n"
            for r, c, z in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist()))
        assert (tmp_path / "stored.csv").read_text() == want

    def test_block_operator_is_saved_without_a_dense_copy(self, tmp_path):
        """The RWA Hamiltonian on the 52-mode box with the atom at nmax 5
        (D = 624) is a 120 kB block stack; a dense copy would take 6.2 MB."""
        import tracemalloc

        from monofield.cli import _box_modes

        modes, volume = _box_modes({"edge": 2.0, "max_index": 1}, 1.0)
        layout = mf.build_layout(modes, 5, with_atom=True)
        atom = mf.AtomParams.make(1.0, 0.02, (1.0, 0.3j, 0.2))
        h = mf.atom_field_hamiltonian(layout, atom, mf.FieldConfig(volume=volume))
        assert h.kind == "block"
        tracemalloc.start()
        try:
            mf.hilbert.save_operator(h, tmp_path / "h.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_operator_is_loaded_without_a_dense_copy(self, tmp_path):
        """The RWA Hamiltonian on the 248-mode box with the atom at nmax 8
        (D = 4 464) goes through save and load within 16 MB traced peak; a
        dense D x D copy would take 319 MB."""
        import tracemalloc

        from monofield.cli import _box_modes

        modes, volume = _box_modes({"edge": 2.0, "max_index": 2}, 1.0)
        layout = mf.build_layout(modes, 8, with_atom=True)
        atom = mf.AtomParams.make(1.0, 0.02, (1.0, 0.3j, 0.2))
        h = mf.atom_field_hamiltonian(layout, atom, mf.FieldConfig(volume=volume))
        assert layout.dimension == 4464
        tracemalloc.start()
        try:
            mf.hilbert.save_operator(h, tmp_path / "h.csv")
            back = mf.hilbert.load_operator(tmp_path / "h.csv", layout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        assert back.kind == "block" and np.array_equal(back.data, h.data)

    def test_operator_entry_between_mode_blocks_refused(self, two_tone_layout, tmp_path):
        path = tmp_path / "op.csv"
        path.write_text(f"{LAYOUT_LINE}\nrow,col,re,im\n0,0,1.0,0.0\n1,5,0.5,0.0\n")
        with pytest.raises(ValueError) as exc:
            mf.hilbert.load_operator(path, two_tone_layout)
        assert str(exc.value) == (
            f"operator file {str(path)!r}, line 4: entry (1, 5) lies between the blocks "
            "of modes 0 and 1; an operator is block-diagonal over the modes")

    def test_operator_repeated_entry_refused(self, two_tone_layout, tmp_path):
        path = tmp_path / "op.csv"
        path.write_text(f"{LAYOUT_LINE}\nrow,col,re,im\n0,1,1.0,0.0\n5,5,2.0,0.0\n"
                        "0,1,3.0,0.0\n")
        with pytest.raises(ValueError) as exc:
            mf.hilbert.load_operator(path, two_tone_layout)
        assert str(exc.value) == \
            f"operator file {str(path)!r}, line 5: row,col 0,1 repeats an earlier line"

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, -np.inf)])
    def test_non_finite_state_is_not_saved(self, two_tone_layout, bad, tmp_path):
        """save_state refuses what load_state would refuse, before it opens
        the file: a new path stays absent and an existing file unchanged."""
        amps = np.arange(two_tone_layout.dimension, dtype=complex)
        amps[[4, 6]] = bad
        state = mf.StateVector(two_tone_layout, amps)
        path, kept = tmp_path / "state.csv", tmp_path / "kept.csv"
        kept.write_text("earlier contents\n")
        for target in (path, kept):
            with pytest.raises(ValueError) as exc:
                mf.hilbert.save_state(state, target)
            assert str(exc.value) == (f"state file {str(target)!r}: non-finite value "
                                      f"{amps[4]} at index 4; load_state would refuse it")
        assert not path.exists() and kept.read_text() == "earlier contents\n"

    @pytest.mark.parametrize("kind", ["diagonal", "block"])
    def test_non_finite_operator_is_not_saved(self, two_tone_layout, kind, tmp_path):
        """save_operator names the row and col of the first non-finite entry
        in file order, and writes nothing."""
        layout, col = two_tone_layout, {"diagonal": 5, "block": 6}[kind]
        matrix = np.diag(np.arange(1.0, layout.dimension + 1)).astype(complex)
        matrix[5, col] = np.inf
        matrix[6, 6] = np.nan
        op = mf.Operator.from_diagonal(layout, np.diag(matrix)) if kind == "diagonal" \
            else block_operator(layout, matrix)
        assert op.kind == kind
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier contents\n")
        for target in (tmp_path / "op.csv", kept):
            with pytest.raises(ValueError) as exc:
                mf.hilbert.save_operator(op, target)
            assert str(exc.value) == (f"operator file {str(target)!r}: non-finite value "
                                      f"(inf+0j) at row 5, col {col}; load_operator would "
                                      "refuse it")
        assert not (tmp_path / "op.csv").exists()
        assert kept.read_text() == "earlier contents\n"

    def test_state_repeated_index_refused(self, two_tone_layout, tmp_path):
        path = tmp_path / "state.csv"
        path.write_text(f"{LAYOUT_LINE}\nindex,re,im\n3,1.0,0.0\n3,0.5,0.0\n")
        with pytest.raises(ValueError) as exc:
            mf.hilbert.load_state(path, two_tone_layout)
        assert str(exc.value) == \
            f"state file {str(path)!r}, line 4: index 3 repeats an earlier line"

    def test_state_roundtrip_keeps_signed_zeros(self, two_tone_layout, tmp_path):
        amps = np.zeros(two_tone_layout.dimension, dtype=complex)
        amps[0], amps[1], amps[2] = complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0)
        path = tmp_path / "state.csv"
        mf.hilbert.save_state(mf.StateVector(two_tone_layout, amps), path)
        back = mf.hilbert.load_state(path, two_tone_layout)
        assert back.amplitudes.tobytes() == amps.tobytes()

    @pytest.mark.parametrize("line, problem", [
        ("-1,1.0,0.0", "index -1 out of range [0, 8)"),
        ("8,1.0,0.0", "index 8 out of range [0, 8)"),
        ("1.5,1.0,0.0", "invalid literal for int()"),
        ("0,nan,0.0", "non-finite value"),
        ("0,1.0,inf", "non-finite value"),
        ("0,1.0", "expected 3 fields, got 2"),
        ("0,1.0,0.0,0.0", "expected 3 fields, got 4"),
        ("", "expected 3 fields, got 1"),
    ])
    def test_state_file_bad_line_refused(self, two_tone_layout, tmp_path, line, problem):
        path = tmp_path / "state.csv"
        path.write_text(f"{LAYOUT_LINE}\nindex,re,im\n0,1.0,0.0\n{line}\n")
        with pytest.raises(ValueError) as exc:
            mf.hilbert.load_state(path, two_tone_layout)
        assert str(exc.value).startswith(f"state file {str(path)!r}, line 4: {problem}")

    @pytest.mark.parametrize("line, problem", [
        ("-1,0,1.0,0.0", "index -1 out of range [0, 8)"),
        ("0,-1,1.0,0.0", "index -1 out of range [0, 8)"),
        ("0,8,1.0,0.0", "index 8 out of range [0, 8)"),
        ("0,0,-inf,0.0", "non-finite value"),
        ("0,0,1.0,nan", "non-finite value"),
        ("0,0,1.0", "expected 4 fields, got 3"),
        ("0,x,1.0,0.0", "invalid literal for int()"),
    ])
    def test_operator_file_bad_line_refused(self, two_tone_layout, tmp_path, line, problem):
        path = tmp_path / "op.csv"
        path.write_text(f"{LAYOUT_LINE}\nrow,col,re,im\n0,0,1.0,0.0\n{line}\n")
        with pytest.raises(ValueError) as exc:
            mf.hilbert.load_operator(path, two_tone_layout)
        assert str(exc.value).startswith(f"operator file {str(path)!r}, line 4: {problem}")

    @pytest.mark.parametrize("what", ["state", "operator"])
    def test_file_names_its_layout(self, two_tone_layout, rng, tmp_path, what):
        """The first line names M, nmax, A and the basis order; a file for
        another layout, or one with no layout line (written before the
        mode-major basis order, whose kets may differ), is refused."""
        save, load = getattr(mf.hilbert, f"save_{what}"), getattr(mf.hilbert, f"load_{what}")
        obj = (random_state if what == "state" else random_hermitian)(two_tone_layout, rng)
        path = tmp_path / f"{what}.csv"
        save(obj, path)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0] == f"{LAYOUT_LINE}\n"
        name = f"{what} file {str(path)!r}"
        for other in (mf.build_layout(two_tone_layout.modes, 4),
                      mf.build_layout(two_tone_layout.modes[:1], 3),
                      mf.build_layout(two_tone_layout.modes, 3, with_atom=True)):
            with pytest.raises(ValueError) as exc:
                load(path, other)
            assert str(exc.value).startswith(
                f"{name} was written for another layout or basis order: "
                f"its first line is {LAYOUT_LINE!r}, this layout's is ")
        path.write_text(LAYOUT_LINE.replace("mode-atom-n", "atom-mode-n") + "\n"
                        + "".join(lines[1:]))
        with pytest.raises(ValueError, match="another layout or basis order"):
            load(path, two_tone_layout)
        path.write_text("".join(lines[1:]))  # the format before the layout line
        with pytest.raises(ValueError) as exc:
            load(path, two_tone_layout)
        assert str(exc.value) == (
            f"{name} does not name its layout (first line {lines[1].strip()!r}); a file "
            f"written before the mode-atom-n basis order may index other kets: load it with "
            f"the version that wrote it and write it again with save_{what}")

    def test_mode_set_from_json(self, tmp_path):
        doc = [
            {"s": 1, "kappa": [0.0, 0.0, 1.0], "j": 0},
            {"s": -1, "kappa": [0.0, 0.0, 1.0], "j": 0},
            {"omega": 2.5, "j": 1},
        ]
        path = tmp_path / "modes.json"
        path.write_text(json.dumps(doc))
        for source in (str(path), path):
            modes = mf.load_mode_set(source)
            assert len(modes) == 3
            assert modes[0].omega == 1.0
            assert modes[2].abstract and modes[2].omega == 2.5

    def test_mode_set_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            mf.load_mode_set([{"s": 1, "kappa": [0, 0, 1], "frequency": 2}])

    def test_mode_set_omega_uses_config_c(self):
        modes = mf.load_mode_set([{"s": 1, "kappa": [0, 0, 1]}],
                                 mf.FieldConfig(c=3.0))
        assert modes[0].omega == 3.0

    @pytest.mark.parametrize("entry, named", [
        ({"s": 1.0, "kappa": [0, 0, 1]}, r"modes\[0\]\.s"),
        ({"s": 1, "kappa": [0, 0, True]}, r"modes\[0\]\.kappa\[2\]"),
        ({"s": 1, "kappa": 5}, r"modes\[0\]\.kappa"),
        ({"omega": "2.5"}, r"modes\[0\]\.omega"),
    ], ids=["s_float", "kappa_bool", "kappa_not_list", "omega_string"])
    def test_mode_set_refuses_loose_numbers(self, entry, named):
        with pytest.raises(ValueError, match=named):
            mf.load_mode_set([entry])


class TestTypedReaders:
    @pytest.mark.parametrize("value", [True, "1", None, [1.0], float("inf"),
                                       float("nan"), 10 ** 400])
    def test_read_real_refuses(self, value):
        with pytest.raises(ValueError, match="x.y: expected a finite number"):
            mf.hilbert.read_real(value, "x.y")

    @pytest.mark.parametrize("value", [True, "1", None, 2.0, 1.7])
    def test_read_int_refuses(self, value):
        with pytest.raises(ValueError, match="x.y: expected an integer"):
            mf.hilbert.read_int(value, "x.y")

    def test_readers_accept_json_numbers(self):
        assert mf.hilbert.read_real(3) == 3.0 and type(mf.hilbert.read_real(3)) is float
        assert mf.hilbert.read_real(-1e300) == -1e300
        assert mf.hilbert.read_int(-4) == -4


def per_entry_complex_list(values, where):
    """The one-entry-at-a-time reader, kept as the oracle of parse_complex_list."""
    return [mf.hilbert.parse_complex(v, f"{where}[{i}]") for i, v in enumerate(values)]


def read_both(values, where="weights"):
    """(values or error message) from the oracle and from parse_complex_list."""
    out = []
    for reader in (per_entry_complex_list, mf.hilbert.parse_complex_list):
        try:
            # repr tells signed zeros apart
            out.append([repr(complex(z)) for z in reader(values, where)])
        except ValueError as exc:
            out.append(str(exc))
    return out


BAD_ENTRIES = {
    "bool": True,
    "string": "1.5",
    "inf": float("inf"),  # what json reads for 1e400
    "triple": [1.0, 2.0, 3.0],
    "nested_pair": [[1.0, 0.0], [0.0, 1.0]],
    "bool_imag": [0.5, True],
    "null": None,
    "nan_real": [float("nan"), 0.0],
    "int_past_float_range": 10 ** 400,
    "int_rounding_to_max": int(np.finfo(float).max) + 1,
    "single": [1.0],
    "empty_pair": [],
}
GOOD = [[0.25, -1.0], 2, [-0.0, 0.0], -0.0, [3, 2 ** 70], 1e-300, [2 ** 63 + 1, -7]]


class TestComplexListReader:
    @pytest.mark.parametrize("position", [0, 3, len(GOOD) - 1],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", list(BAD_ENTRIES.values()), ids=list(BAD_ENTRIES))
    def test_bad_entry_named_as_before(self, bad, position):
        values = list(GOOD)
        values[position] = bad
        old, new = read_both(values)
        assert isinstance(old, str) and f"weights[{position}]" in old
        assert new == old

    def test_first_of_two_bad_entries_named(self):
        values = list(GOOD)
        values[2], values[5] = "x", True
        old, new = read_both(values, "alphas")
        assert new == old == "alphas[2]: expected a finite number or [re, im] pair, got 'x'"

    @pytest.mark.parametrize("values", [
        GOOD,
        [],
        [1.0, [0.0, 2.0], 3, [4, 5.5]],
        [[1.0, 2.0]] * 40,
        [0.5] * 40,
        [np.float64(1.5), [np.float64(2.0), 0.0]],  # float subclasses: entry by entry
        [[1.0, 2.0], (3.0, 4.0)],
        [np.finfo(float).max, [-np.finfo(float).max, 0.0]],
    ], ids=["good", "empty", "mixed", "pairs", "reals", "float_subclass", "tuple",
            "float_max"])
    def test_values_as_before(self, values):
        old, new = read_both(values)
        assert isinstance(old, list) and new == old

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-2 ** 1030, max_value=2 ** 1030),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
        st.sampled_from(list(BAD_ENTRIES.values()))), max_size=12))
    def test_matches_per_entry_reader(self, values):
        old, new = read_both(values)
        assert new == old

    @pytest.mark.parametrize("key", ["weights", "alphas"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", ["true", '"1.5"', "1e400", "[1, 2, 3]",
                                     "[[1, 0], [0, 1]]", "[0.5, true]", "null"],
                             ids=["bool", "string", "1e400", "triple", "nested_pair",
                                  "bool_imag", "null"])
    def test_config_error_message_unchanged(self, tmp_path, key, position, bad):
        entries = ["1.0", "[0.0, 0.5]", "2"]
        entries[position] = bad
        listed = "[" + ", ".join(entries) + "]"
        state = {"weights": [1, 1, 1], key: "LIST"}
        doc = {"modes": [{"omega": 1.0}, {"omega": 2.0}, {"omega": 3.0}], "nmax": 2,
               "states": [state]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc).replace('"LIST"', listed))  # 1e400 as written
        values = json.loads(listed)
        with pytest.raises(ValueError) as oracle:
            per_entry_complex_list(values, key)
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == f"bad states[0]: {oracle.value}"

    def test_non_list_refused_as_before(self):
        modes = [mf.abstract_mode(1.0)]
        for key in ("weights", "alphas"):
            doc = {"weights": [1.0], key: 3.0}
            with pytest.raises(ValueError) as exc:
                read_states(modes, [doc])
            assert str(exc.value) == f"bad states[0]: {key}: expected a list, got 3.0"

    def test_spec_values_as_before(self):
        modes = [mf.abstract_mode(1.0), mf.abstract_mode(2.0), mf.abstract_mode(3.0)]
        weights, alphas = [1, [0.0, -2.0], 0.5], [[0.1, 0.2], -0.0, 3]
        batch, labels = read_states(modes, [{"weights": weights, "alphas": alphas}])
        want = mf.CoherentBatch.make(modes, [per_entry_complex_list(weights, "weights")],
                                     [per_entry_complex_list(alphas, "alphas")])
        assert batch.weights.tobytes() == want.weights.tobytes()
        assert batch.alphas.tobytes() == want.alphas.tobytes()
        assert labels == ("state0",)
