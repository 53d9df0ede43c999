import json
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monofield as mf
from monofield.cli import ConfigError, load_config
from monofield.fields import read_states
from conftest import random_hermitian, random_state


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
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1) < 1e-12


class TestBrackets:
    def test_identity_expectation(self, two_tone_layout, rng):
        psi = random_state(two_tone_layout, rng)
        identity = mf.Operator.from_diagonal(two_tone_layout, np.ones(two_tone_layout.dimension))
        assert mf.expect(identity, psi) == pytest.approx(1.0)

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

    def test_expect_is_the_bracket_of_matvec(self, two_tone_layout, rng):
        for a in (random_hermitian(two_tone_layout, rng),
                  mf.hamiltonian(two_tone_layout)):
            psi = random_state(two_tone_layout, rng)
            want = complex(np.vdot(psi.amplitudes, a.matvec(psi.amplitudes)))
            assert repr(mf.expect(a, psi)) == repr(want)

    def test_layout_mismatch_rejected(self, two_tone_layout, rng):
        other = abstract_layout(3, 3)
        x = random_state(two_tone_layout, rng)
        with pytest.raises(ValueError, match="mismatch"):
            mf.expect(mf.Operator.from_diagonal(other, np.ones(other.dimension)), x)


class TestOperatorStorage:
    def test_shape_mismatch_rejected(self, two_tone_layout):
        with pytest.raises(ValueError, match="shape"):
            mf.Operator(two_tone_layout, np.eye(3))

    def test_dense_matrix_rejected(self, two_tone_layout):
        """A (D, D) array is no storage kind, even the zero matrix."""
        with pytest.raises(ValueError, match=r"shape \(8, 8\) is neither"):
            mf.Operator(two_tone_layout, np.zeros((two_tone_layout.dimension,) * 2))


class TestModeSet:
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


class TestOutputFile:
    """output_file replaces a file as ``open(path, "w")`` does: same bytes,
    permissions and link handling, and no old text left by a stopped write."""

    def write(self, path, text):
        with mf.hilbert.output_file(path) as fh:
            fh.write(text)

    def test_a_shorter_text_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old,longer,text\n" * 100)
        self.write(path, "new\n")
        assert path.read_bytes() == b"new\n"
        self.write(path, "")
        assert path.read_bytes() == b""

    def test_an_interrupted_write_leaves_only_the_new_prefix(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"stale\n" * 1000)
        with pytest.raises(KeyboardInterrupt):
            with mf.hilbert.output_file(path) as fh:
                fh.write("a,b\n1,2\n")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"a,b\n1,2\n"

    @pytest.mark.parametrize("signal_, linked", [(signal.SIGKILL, False),
                                                 (signal.SIGTERM, False),
                                                 (signal.SIGKILL, True)],
                             ids=["SIGKILL", "SIGTERM", "SIGKILL-hard-link"])
    def test_a_killed_writer_leaves_only_the_new_prefix(self, tmp_path, signal_, linked):
        """A writer stopped by a signal mid-write, with part of its text
        flushed, leaves that part and nothing of the longer old file."""
        path = tmp_path / "out.csv"
        path.write_bytes(b"stale\n" * 100_000)
        if linked:
            os.link(path, tmp_path / "hard.csv")
        child = ("import sys, time\n"
                 "from monofield.hilbert import output_file\n"
                 "with output_file(sys.argv[1]) as fh:\n"
                 "    fh.write('new\\n' * 1000)\n"
                 "    fh.flush()\n"
                 "    print('flushed', flush=True)\n"
                 "    time.sleep(60)\n"
                 "    fh.write('never\\n')\n")
        src = str(Path(mf.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-c", child, str(path)], stdout=subprocess.PIPE,
                                text=True, env=dict(os.environ, PYTHONPATH=src))
        try:
            assert proc.stdout.readline() == "flushed\n"
            proc.send_signal(signal_)
            assert proc.wait(timeout=60) == -signal_
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert path.read_bytes() == b"new\n" * 1000
        if linked:
            assert (tmp_path / "hard.csv").read_bytes() == b"new\n" * 1000

    def test_a_symlink_rewrites_its_target_and_stays(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old text, longer than the new one\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        self.write(link, "{}\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"{}\n"

    def test_a_hard_link_is_followed(self, tmp_path):
        path, hard = tmp_path / "out.json", tmp_path / "hard.json"
        path.write_text("old text, longer than the new one\n")
        os.link(path, hard)
        inode = path.stat().st_ino
        self.write(path, "{}\n")
        assert path.read_bytes() == hard.read_bytes() == b"{}\n"
        assert path.stat().st_ino == hard.stat().st_ino == inode

    def test_a_fifo_is_written_and_not_replaced(self, tmp_path):
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            self.write(fifo, "a,b\n")
            assert os.read(reader, 100) == b"a,b\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_modes_are_those_of_open_w(self, tmp_path):
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        kept.chmod(0o600)
        self.write(kept, "new\n")
        assert stat.S_IMODE(kept.stat().st_mode) == 0o600
        umask = os.umask(0o027)
        try:
            self.write(tmp_path / "new.csv", "x\n")
            with open(tmp_path / "reference.csv", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o666 & ~0o027
        assert stat.S_IMODE((tmp_path / "reference.csv").stat().st_mode) == 0o640

    def test_a_read_only_file_is_refused_or_written_as_open_w_does(self, tmp_path):
        """Without write permission "w" refuses the file, or a superuser
        writes it and keeps its mode; output_file does the same."""
        reference, path = tmp_path / "reference.csv", tmp_path / "out.csv"
        for p in (reference, path):
            p.write_text("old\n")
            p.chmod(0o444)
        try:
            with open(reference, "w") as fh:
                fh.write("new\n")
        except PermissionError:
            with pytest.raises(PermissionError):
                self.write(path, "new\n")
        else:
            self.write(path, "new\n")
        assert path.read_bytes() == reference.read_bytes()
        assert stat.S_IMODE(path.stat().st_mode) == 0o444

    @pytest.mark.parametrize("name", ["missing/out.csv", "."])
    def test_errors_are_those_of_open_w(self, tmp_path, name):
        with pytest.raises(OSError) as want:
            open(tmp_path / name, "w")
        with pytest.raises(type(want.value)) as got:
            self.write(tmp_path / name, "x")
        assert got.value.errno == want.value.errno


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
