"""Sector-by-sector assembly of mode sums against the dense per-mode sums.

Every mode sum (field components, ladder-form Hamiltonian and momentum,
RWA coupling) is assembled from one (nmax+1)-square block per mode.  The
oracles below are the plain sums over dense single-mode annihilators
``mode_annihilator(layout, k)``; the assembled matrices must equal them
entry for entry, down to the sign of zeros, because the byte-identical
CLI outputs rest on it.
"""

import json

import numpy as np
import pytest

import monofield as mf
from monofield.cli import load_config
from monofield.fields import _mode_weights
from conftest import sigma_plus


def assert_same_entries(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def annihilators(layout):
    return [mf.mode_annihilator(layout, k).toarray() for k in range(layout.n_modes)]


def field_oracle(layout, kind, config, t, x):
    """F_i = sum_k (w_ki a_k + h.c.) over dense single-mode annihilators."""
    weights = _mode_weights(layout, config, t, x, kind)
    dense = annihilators(layout)
    out = []
    for i in range(3):
        total = np.zeros((layout.dimension,) * 2, dtype=complex)
        for k, ak in enumerate(dense):
            w = weights[k, i]
            total += w * ak + np.conj(w) * ak.conj().T
        out.append(total)
    return out


def coupling_oracle(layout, atom, config, phases=None):
    sp_mat = sigma_plus(layout).toarray()
    total = np.zeros((layout.dimension,) * 2, dtype=complex)
    for k, (m, ak) in enumerate(zip(layout.modes, annihilators(layout))):
        g = mf.coupling(m, atom, config)
        if phases is not None:
            g = g * phases[k]
        term = g * (ak @ sp_mat)
        total += term + term.conj().T
    return config.hbar * atom.omega0 * atom.d * total


@pytest.fixture(scope="module")
def box(tmp_path_factory):
    """The 52-mode box (max_index 1) with non-natural constants."""
    path = tmp_path_factory.mktemp("box") / "box.json"
    path.write_text(json.dumps({"box": {"edge": 2.5, "max_index": 1}, "nmax": 3,
                                "field": {"hbar": 0.7, "c": 1.3}}))
    cfg, _ = load_config(path)
    assert len(cfg.modes) == 52
    return cfg


@pytest.fixture(scope="module")
def atom():
    return mf.AtomParams.make(1.1, 0.03, [1.0, 0.3j, -0.2])


class TestFieldOperators:
    @pytest.mark.parametrize("kind, builder", [("A", mf.vector_potential),
                                               ("E", mf.electric_field),
                                               ("B", mf.magnetic_field)])
    @pytest.mark.parametrize("with_atom", [False, True])
    def test_matches_per_mode_sum(self, box, kind, builder, with_atom):
        layout = mf.build_layout(box.modes, box.nmax, with_atom=with_atom)
        t, x = 0.37, (0.1, -0.25, 0.4)
        got = builder(layout, box.field, t, x)
        want = field_oracle(layout, kind, box.field, t, x)
        for op, ref in zip(got, want):
            assert_same_entries(op.toarray(), ref)


class TestLadderForms:
    # the dense oracle costs 2M products of size D^3, so take a slice of the box
    def test_hamiltonian_matches_per_mode_sum(self, box):
        layout = mf.build_layout(box.modes[:16], box.nmax)
        want = np.zeros((layout.dimension,) * 2, dtype=complex)
        for m, ak in zip(layout.modes, annihilators(layout)):
            adk = ak.conj().T
            want += 0.5 * box.field.hbar * m.omega * (adk @ ak + ak @ adk)
        assert_same_entries(mf.hamiltonian_from_mode_ladders(layout, box.field).toarray(),
                            want)

    @pytest.mark.parametrize("with_atom", [False, True])
    def test_momentum_matches_per_mode_sum(self, box, with_atom):
        layout = mf.build_layout(box.modes[:16], box.nmax, with_atom=with_atom)
        want = [np.zeros((layout.dimension,) * 2, dtype=complex) for _ in range(3)]
        for m, ak in zip(layout.modes, annihilators(layout)):
            sym = 0.5 * (ak.conj().T @ ak + ak @ ak.conj().T)
            for i in range(3):
                want[i] += box.field.hbar * m.kappa[i] * sym
        got = mf.momentum_from_mode_ladders(layout, box.field)
        for op, ref in zip(got, want):
            assert_same_entries(op.toarray(), ref)


class TestRwaCoupling:
    @pytest.fixture
    def layout(self, box):
        # the dense oracle costs M products of size D^3, so take a slice of the box
        return mf.build_layout(box.modes[:10], box.nmax, with_atom=True)

    def test_atom_field_hamiltonian(self, layout, box, atom):
        h0 = mf.free_hamiltonian_with_atom(layout, atom, box.field).toarray()
        want = h0 + coupling_oracle(layout, atom, box.field)
        got = mf.atom_field_hamiltonian(layout, atom, box.field).toarray()
        assert_same_entries(got, want)

    @pytest.mark.parametrize("t", [0.0, 0.8, 3.7])
    def test_interaction_hamiltonian(self, layout, box, atom, t):
        phases = np.exp(1j * (atom.omega0 - layout.omegas) * t)
        want = coupling_oracle(layout, atom, box.field, phases)
        got = mf.interaction_hamiltonian(layout, atom, box.field, t).toarray()
        assert_same_entries(got, want)


class TestHelpers:
    def test_place_matches_per_entry_loop(self, rng):
        """blocks[k][(atom, n), (atom', n')] lands on |k, n, atom><k, n', atom'|,
        added onto zeros; nothing else is written."""
        layout = mf.build_layout([mf.abstract_mode(w) for w in (1.0, 2.0, 3.0)], 2,
                                 with_atom=True)
        b, size = layout.fock_dim, 2 * layout.fock_dim
        shape = (layout.n_modes, size, size)
        blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        blocks[0, 0, 0] = -0.0
        want = np.zeros((layout.dimension,) * 2, dtype=complex)
        for k, block in enumerate(blocks):
            for row in range(size):
                for col in range(size):
                    r = layout.flatten(k, row % b, row // b)
                    c = layout.flatten(k, col % b, col // b)
                    want[r, c] += block[row, col]
        assert_same_entries(layout.place(blocks), want)

    @pytest.mark.parametrize("with_atom", [False, True])
    def test_ladder_constructors_match_kron_form(self, box, with_atom):
        """mode_annihilator and ladder write one lowering block per sector;
        the dense kron(selector, 1_atom, a) is the oracle."""
        layout = mf.build_layout(box.modes[:6], box.nmax, with_atom=with_atom)
        a = mf.fock_lowering(layout.nmax)
        atom = np.eye(2 if with_atom else 1, dtype=complex)
        for k in range(layout.n_modes):
            selector = np.zeros((layout.n_modes,) * 2, dtype=complex)
            selector[k, k] = 1.0
            assert_same_entries(mf.mode_annihilator(layout, k).toarray(),
                                np.kron(selector, np.kron(atom, a)))
        assert_same_entries(mf.ladder(layout).toarray(), np.kron(
            np.eye(layout.n_modes, dtype=complex), np.kron(atom, a)))
