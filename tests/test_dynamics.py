import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import monofield as mf
from conftest import random_hermitian, random_state
from monofield.cli import load_config, main
from monofield.dynamics import resonance_kernel
from monofield.emission import EXCITED

DATA = Path(__file__).parent / "data"


def eig_evolve(h_matrix, amps, t, hbar=1.0):
    """Eigendecomposition oracle for exp(-iHt/hbar) @ amps."""
    evals, evecs = np.linalg.eigh(h_matrix)
    return evecs @ (np.exp(-1j * evals * t / hbar) * (evecs.conj().T @ amps))


def config_hamiltonian(name, dipole=None):
    """RWA Hamiltonian of a tests/data config (optionally at another dipole) and the config."""
    cfg, _ = load_config(DATA / name)
    atom = cfg.atom if dipole is None else replace(cfg.atom, d=dipole)
    layout = mf.build_layout(cfg.modes, cfg.nmax, with_atom=True)
    return mf.atom_field_hamiltonian(layout, atom, cfg.field), cfg


def jc_half_rabi(cfg):
    return mf.jc_rabi_half_frequency(cfg.atom, mf.coupling(cfg.modes[0], cfg.atom, cfg.field))


def relative_deviation(out, oracle):
    return np.max(np.abs(out - oracle)) / np.max(np.abs(oracle))


class TestResonanceKernel:
    def test_resonance_limit_is_minus_it(self):
        for t in (0.3, 1.0, 10.0):
            assert resonance_kernel(0.0, t) == -1j * t

    def test_series_matches_direct_branch(self):
        # straddle the switchover; the direct quotient itself carries
        # cancellation noise of order eps/delta there, so compare at that level
        t = 1.0
        for delta in (9.9e-7, 1.1e-6, 1e-5):
            direct = (np.exp(-1j * delta * t) - 1.0) / delta
            assert abs(resonance_kernel(delta, t) - direct) < 1e-9

    def test_series_branch_beats_direct_quotient(self):
        # fourth-order series truncation at |z| = 1e-7 is ~1e-30, far below
        # the ~1e-9 cancellation of the raw quotient it replaces
        delta, t = 1e-7, 1.0
        exact = -1j * t * (1 + (-1j * delta * t) / 2 + (-1j * delta * t) ** 2 / 6)
        assert abs(resonance_kernel(delta, t) - exact) < 1e-15

    def test_far_from_resonance(self):
        delta, t = 2.5, 0.7
        expected = (np.exp(-1j * delta * t) - 1.0) / delta
        assert resonance_kernel(delta, t) == expected


class TestMatrixExp:
    def test_zero_gives_identity(self, two_tone_layout):
        z = mf.Operator.zero(two_tone_layout)
        assert np.array_equal(mf.matrix_exp(z).toarray(),
                              np.eye(two_tone_layout.dimension))

    def test_diagonal_phases(self, two_tone_layout):
        theta = np.linspace(0, 2, two_tone_layout.dimension)
        a = mf.Operator.from_diagonal(two_tone_layout, 1j * theta)
        assert np.array_equal(mf.matrix_exp(a).diag(), np.exp(1j * theta))

    def test_against_eigendecomposition_oracle(self, rng):
        layout = mf.build_layout(
            [mf.abstract_mode(float(w)) for w in range(1, 5)], 63)
        assert layout.dimension == 256
        h = random_hermitian(layout, rng)
        u = mf.matrix_exp(-1j * 0.7 * h)
        evals, evecs = np.linalg.eigh(h.toarray())
        oracle = evecs @ np.diag(np.exp(-1j * evals * 0.7)) @ evecs.conj().T
        rel = np.max(np.abs(u.toarray() - oracle)) / np.max(np.abs(oracle))
        assert rel < 1e-11

    def test_field_hamiltonian_generator(self, mixed_modes):
        layout = mf.build_layout(mixed_modes, 3)
        h = mf.hamiltonian(layout)
        u = mf.matrix_exp(-1j * 2.0 * h)
        oracle = np.diag(np.exp(-1j * 2.0 * h.diag()))
        assert np.max(np.abs(u.toarray() - oracle)) < 1e-11

    def test_nonfinite_input_rejected(self, two_tone_layout):
        bad = np.full(two_tone_layout.block_shape, np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            mf.matrix_exp(mf.Operator(two_tone_layout, bad))

    def test_overflow_rejected_with_diagnostic(self, two_tone_layout):
        huge = np.full(two_tone_layout.block_shape, 1e6)
        with pytest.raises(ValueError, match="overflow"):
            mf.matrix_exp(mf.Operator(two_tone_layout, huge))


class TestEvolve:
    def test_diagonal_fast_path_phases(self, two_tone_layout):
        h = mf.hamiltonian(two_tone_layout)
        t = 0.83
        psi = mf.basis_state(two_tone_layout, 1, 2)
        out = mf.evolve(h, psi, t)
        # omega = 2, n = 2 -> phase exp(-i*omega*(n+1/2)*t)
        expected = np.exp(-1j * 2.0 * 2.5 * t)
        assert out.amplitude(1, 2) == expected

    def test_semigroup_property(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        once = mf.evolve(h, psi, 1.4)
        twice = mf.evolve(h, mf.evolve(h, psi, 0.7), 0.7)
        assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-10

    def test_against_eigendecomposition_oracle(self, rng):
        layout = mf.build_layout([mf.abstract_mode(1.0), mf.abstract_mode(2.0)], 31)
        assert layout.dimension == 64
        h = random_hermitian(layout, rng)
        psi = random_state(layout, rng)
        out = mf.evolve(h, psi, 2.2)
        oracle = eig_evolve(h.toarray(), psi.amplitudes, 2.2)
        assert np.max(np.abs(out.amplitudes - oracle)) < 1e-9

    def test_norm_preserved(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        assert abs(mf.evolve(h, psi, 5.0).norm - 1.0) < 1e-10

    def test_non_hermitian_rejected(self, two_tone_layout, rng):
        m = rng.normal(size=two_tone_layout.block_shape)
        psi = random_state(two_tone_layout, rng)
        with pytest.raises(ValueError, match="Hermitian"):
            mf.evolve(mf.Operator(two_tone_layout, m + np.triu(m, 1)), psi, 1.0)

    def test_energy_conserved(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        e0 = mf.expect(h, psi).real
        for t in (0.5, 2.0, 9.0):
            et = mf.expect(h, mf.evolve(h, psi, t)).real
            assert abs(et - e0) < 1e-10

    def test_hbar_enters_the_phase(self, two_tone_layout):
        h = mf.hamiltonian(two_tone_layout, mf.FieldConfig(hbar=2.0))
        psi = mf.basis_state(two_tone_layout, 0, 0)
        out = mf.evolve(h, psi, 1.0, hbar=2.0)
        assert out.amplitude(0, 0) == np.exp(-1j * 0.5)


class TestSpectrum:
    @pytest.mark.parametrize("t", [0.0, -0.0, 1e-300])
    def test_zero_phase_returns_the_state_exactly(self, two_tone_layout, rng, t):
        h = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        assert np.array_equal(mf.evolve(h, psi, t).amplitudes, psi.amplitudes)

    def test_zero_time_propagator_is_the_identity_exactly(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        assert np.array_equal(mf.spectrum(h).unitary(0.0).toarray(),
                              np.eye(two_tone_layout.dimension))

    def test_one_spectrum_serves_every_time(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        spec = mf.spectrum(h)
        for t in (0.3, 1.7, 25.0):
            assert np.array_equal(spec.evolve(psi, t).amplitudes,
                                  mf.evolve(h, psi, t).amplitudes)
            assert np.max(np.abs(spec.unitary(t).toarray() @ psi.amplitudes
                                 - spec.evolve(psi, t).amplitudes)) < 1e-12

    def test_diagonal_generator_keeps_the_phase_formula(self, two_tone_layout, rng):
        # the phase arithmetic of the diagonal path is unchanged, so results are equal
        h = mf.hamiltonian(two_tone_layout, mf.FieldConfig(hbar=0.7))
        psi = random_state(two_tone_layout, rng)
        a = random_hermitian(two_tone_layout, rng)
        for t in (0.9, -2.3):
            phases = np.exp(-1j * h.diag().real * t / 0.7)
            assert np.array_equal(mf.evolve(h, psi, t, 0.7).amplitudes,
                                  phases * psi.amplitudes)
            back = np.exp(1j * h.diag().real * t / 0.7)
            assert np.array_equal(mf.heisenberg(h, a, t, 0.7).toarray(),
                                  back[:, None] * a.toarray() * back.conj()[None, :])

    def test_phase_beyond_one_over_eps_refused(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        largest = np.max(np.abs(np.linalg.eigvalsh(h.toarray())))
        with pytest.raises(ValueError, match=r"overflow.*largest phase .* = 1\.000e\+16"):
            mf.evolve(h, psi, 1e16 / largest)
        mf.evolve(h, psi, 1e15 / largest)  # below 1/eps = 4.5e15: still evolved
        diagonal = mf.hamiltonian(two_tone_layout)
        for call in (lambda: mf.spectrum(h).unitary(1e16 / largest),
                     lambda: mf.heisenberg(h, h, -1e16 / largest),
                     lambda: mf.evolve(h, psi, 1.0, hbar=1e-300),
                     lambda: mf.evolve(h, psi, math.inf),
                     lambda: mf.evolve(diagonal, psi, 1e300)):
            with pytest.raises(ValueError, match="overflow"):
                call()

    def test_nonfinite_generator_rejected(self, two_tone_layout, rng):
        psi = random_state(two_tone_layout, rng)
        blocks = np.full(two_tone_layout.block_shape, np.inf)
        diagonal = np.full(two_tone_layout.dimension, np.nan)
        for h in (mf.Operator(two_tone_layout, blocks),
                  mf.Operator.from_diagonal(two_tone_layout, diagonal)):
            with pytest.raises(ValueError, match="non-finite"):
                mf.evolve(h, psi, 1.0)


def trajectory_generators(layout, rng):
    """A generator of each storage kind: diagonal and block."""
    block, _ = config_hamiltonian("config_emission.json")
    return {"diagonal": mf.hamiltonian(layout), "block": block}


class TestTrajectory:
    # hbar = 100 leaves the phases of 5e-324 (the least subnormal) exactly 0
    HBAR = 100.0
    TIMES = [0.0, 30.0, -170.0, -0.0, 2500.0, 5e-324, -45.0]

    @pytest.mark.parametrize("kind", ["diagonal", "block"])
    def test_equals_a_per_time_evolve_loop_bit_for_bit(self, two_tone_layout, rng, kind):
        h = trajectory_generators(two_tone_layout, rng)[kind]
        assert h.kind == kind
        # a -0.0 amplitude shows that a zero-phase row is psi itself: psi
        # plus a zero step would turn it into +0.0
        amplitudes = random_state(h.layout, rng).amplitudes.copy()
        amplitudes[1] = complex(-0.0, -0.0)
        psi = mf.StateVector(h.layout, amplitudes)
        spec = mf.spectrum(h, self.HBAR)
        out = spec.trajectory(psi, self.TIMES)
        loop = np.stack([spec.evolve(psi, t).amplitudes for t in self.TIMES])
        assert out.shape == (len(self.TIMES), h.layout.dimension)
        assert out.tobytes() == loop.tobytes()
        for t, row in zip(self.TIMES, out):
            if spec.largest * abs(t) / self.HBAR == 0.0:
                assert row.tobytes() == psi.amplitudes.tobytes()
            else:
                assert not np.array_equal(row, psi.amplitudes)
        assert np.max(np.abs(out - np.stack([eig_evolve(h.toarray(), psi.amplitudes, t, self.HBAR)
                                             for t in self.TIMES]))) < 1e-12

    def test_refuses_the_first_time_beyond_one_over_eps(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        spec = mf.spectrum(h)
        too_long = 1e16 / spec.largest
        with pytest.raises(ValueError, match=r"overflow.*largest phase .* = 1\.000e\+16"):
            spec.trajectory(psi, [0.0, 1.0, too_long, 10 * too_long])
        for times in ([0.0, math.nan], [math.inf], [1.0, -math.inf]):
            with pytest.raises(ValueError, match="overflow"):
                spec.trajectory(psi, times)
        assert spec.trajectory(psi, []).shape == (0, two_tone_layout.dimension)


def per_time_jc_deviation(path):
    """The Jaynes-Cummings check's max population deviation, one evolve per time."""
    cfg, _ = load_config(path)
    layout = mf.build_layout(cfg.modes, cfg.nmax, with_atom=True)
    h = mf.atom_field_hamiltonian(layout, cfg.atom, cfg.field)
    g = mf.coupling(cfg.modes[0], cfg.atom, cfg.field)
    detuning = cfg.atom.omega0 - cfg.modes[0].omega
    psi0 = mf.basis_state(layout, 0, 0, EXCITED)
    spec = mf.spectrum(h, cfg.field.hbar)
    dev = 0.0
    for t in np.linspace(0.0, 10.0 / jc_half_rabi(cfg), 101):
        psi = spec.evolve(psi0, float(t))
        pop = float(np.sum(np.abs(layout.view(psi.amplitudes)[EXCITED]) ** 2))
        ref = mf.jc_excited_population(cfg.atom, g, 0, float(t), detuning)
        dev = max(dev, abs(pop - ref))
    return dev


def seeded_jc_config(seed, nmax):
    """A single-mode config with a random mode, atom and hbar."""
    rng = np.random.default_rng(seed)
    kappa = rng.normal(size=3)
    kappa *= rng.uniform(0.5, 2.0) / np.linalg.norm(kappa)
    direction = rng.normal(size=(3, 2))
    return {"modes": [{"s": int(rng.choice([-1, 1])), "kappa": kappa.tolist()}],
            "nmax": nmax, "field": {"hbar": float(rng.uniform(0.5, 2.0))},
            "atom": {"omega0": float(rng.uniform(0.8, 2.0)),
                     "dipole": float(rng.uniform(0.03, 0.08)),
                     "direction": direction.tolist()},
            "times": [1.0]}


@pytest.mark.parametrize("seed, nmax", [(None, None), (1, 1), (2, 3), (3, 5), (4, 9)],
                         ids=["config_jc", "seed1", "seed2", "seed3", "seed4"])
def test_jaynes_cummings_deviation_equals_the_per_time_loop(tmp_path, seed, nmax):
    if seed is None:
        path = DATA / "config_jc.json"
    else:
        path = tmp_path / "jc.json"
        path.write_text(json.dumps(seeded_jc_config(seed, nmax)))
    assert main(["compare-standard", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "comparison.json").read_text())
    assert report["jaynes_cummings_check"]["max_population_deviation"] \
        == per_time_jc_deviation(path)


# (config, dipole, time as a fraction of the horizon): the emission config's
# RWA Hamiltonian at three couplings, and the Jaynes-Cummings config at five
# times over ten Rabi periods
PADE_CASES = [("config_emission.json", d, None) for d in (1e-3, 1e-2, 1e-1)] \
    + [("config_jc.json", None, f) for f in (0.2, 0.4, 0.6, 0.8, 1.0)]


class TestAgainstPade:
    """The spectral paths against scipy's Pade exponential, an independent oracle."""

    @staticmethod
    def case(name, dipole, fraction):
        h, cfg = config_hamiltonian(name, dipole)
        if fraction is None:
            t = cfg.times[-1]
        else:
            t = fraction * 10.0 / jc_half_rabi(cfg)
        u = scipy.linalg.expm((-1j * t / cfg.field.hbar) * h.toarray())
        return h, cfg.field.hbar, t, u

    @pytest.mark.parametrize("name, dipole, fraction", PADE_CASES)
    def test_evolve(self, rng, name, dipole, fraction):
        h, hbar, t, u = self.case(name, dipole, fraction)
        psi = random_state(h.layout, rng)
        out = mf.evolve(h, psi, t, hbar).amplitudes
        assert relative_deviation(out, u @ psi.amplitudes) <= 1e-12

    @pytest.mark.parametrize("name, dipole, fraction", PADE_CASES)
    def test_propagator(self, name, dipole, fraction):
        h, hbar, t, u = self.case(name, dipole, fraction)
        assert relative_deviation(mf.spectrum(h, hbar).unitary(t).toarray(), u) <= 1e-12

    @pytest.mark.parametrize("name, dipole, fraction", PADE_CASES)
    def test_heisenberg(self, name, dipole, fraction):
        h, hbar, t, u = self.case(name, dipole, fraction)
        a = mf.mode_annihilator(h.layout, 0)
        oracle = u.conj().T @ a.toarray() @ u
        assert relative_deviation(mf.heisenberg(h, a, t, hbar).toarray(), oracle) <= 1e-12

    def test_jaynes_cummings_check_matches_per_time_pade_loop(self, tmp_path):
        assert main(["compare-standard", "--config", str(DATA / "config_jc.json"),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "comparison.json").read_text())
        dev = report["jaynes_cummings_check"]["max_population_deviation"]
        h, cfg = config_hamiltonian("config_jc.json")
        layout = h.layout
        lam = jc_half_rabi(cfg)
        g = mf.coupling(cfg.modes[0], cfg.atom, cfg.field)
        detuning = cfg.atom.omega0 - cfg.modes[0].omega
        psi0 = mf.basis_state(layout, 0, 0, EXCITED).amplitudes
        oracle = 0.0
        for t in np.linspace(0.0, 10.0 / lam, 101):
            u = scipy.linalg.expm((-1j * float(t) / cfg.field.hbar) * h.toarray())
            pop = float(np.sum(np.abs(layout.view(u @ psi0)[EXCITED]) ** 2))
            ref = mf.jc_excited_population(cfg.atom, g, 0, float(t), detuning)
            oracle = max(oracle, abs(pop - ref))
        assert abs(dev - oracle) <= 1e-12

    def test_evolution_paths_never_call_pade(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called on an evolution path")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        h, _ = config_hamiltonian("config_jc.json")
        psi = mf.basis_state(h.layout, 0, 0, EXCITED)
        mf.evolve(h, psi, 1.0)
        mf.spectrum(h).unitary(1.0)
        mf.heisenberg(h, h, 1.0)
        for command, name in (("emission", "config_emission.json"),
                              ("compare-standard", "config_jc.json")):
            assert main([command, "--config", str(DATA / name),
                         "--out", str(tmp_path)]) == 0


class TestHeisenberg:
    def test_mode_annihilator_picks_up_phase(self, two_tone_layout):
        h = mf.hamiltonian(two_tone_layout)
        for t in (0.1, 1.0, 10.0):
            for k, m in enumerate(two_tone_layout.modes):
                a_k = mf.mode_annihilator(two_tone_layout, k)
                moved = mf.heisenberg(h, a_k, t)
                ref = np.exp(-1j * m.omega * t) * a_k.toarray()
                assert np.max(np.abs(moved.toarray() - ref)) < 1e-12

    def test_t_zero_is_identity_map(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        a = random_hermitian(two_tone_layout, rng)
        assert np.max(np.abs(mf.heisenberg(h, a, 0.0).toarray() - a.toarray())) < 1e-12

    def test_preserves_hermiticity(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        a = random_hermitian(two_tone_layout, rng)
        assert mf.heisenberg(h, a, 1.7).hermitian_deviation() < 1e-12

    def test_diagonal_and_expm_paths_agree(self, two_tone_layout, rng):
        h = mf.hamiltonian(two_tone_layout)
        a = random_hermitian(two_tone_layout, rng)
        fast = mf.heisenberg(h, a, 0.9)
        u = scipy.linalg.expm(-0.9j * h.toarray())
        slow = u.conj().T @ a.toarray() @ u
        assert np.max(np.abs(fast.toarray() - slow)) < 1e-11

    def test_schroedinger_consistency(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        a = random_hermitian(two_tone_layout, rng)
        phi = random_state(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        t = 1.3
        lhs = mf.inner(mf.evolve(h, phi, t), mf.apply(a, mf.evolve(h, psi, t)))
        rhs = mf.inner(phi, mf.apply(mf.heisenberg(h, a, t), psi))
        assert abs(lhs - rhs) < 1e-10


class TestPropagator:
    def test_unitarity(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        u = mf.spectrum(h).unitary(2.4)
        assert (u.dag() @ u - mf.Operator.identity(two_tone_layout)).max_abs() < 1e-10

    def test_zero_time_is_identity(self, two_tone_layout, rng):
        h = random_hermitian(two_tone_layout, rng)
        u = mf.spectrum(h).unitary(0.0)
        assert np.max(np.abs(u.toarray()
                             - np.eye(two_tone_layout.dimension))) < 1e-12


class TestDysonFirstOrder:
    def test_zero_coupling_returns_initial(self, two_tone_layout, rng):
        psi = random_state(two_tone_layout, rng)
        out = mf.dyson_first_order(
            lambda t: mf.Operator.zero(two_tone_layout), psi, 3.0)
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_separable_time_dependence_oracle(self, two_tone_layout, rng):
        # H_I(t) = cos(w*t) C integrates to (sin(w*t)/w) C, by hand
        c = random_hermitian(two_tone_layout, rng)
        psi = random_state(two_tone_layout, rng)
        w, t = 1.7, 2.1
        out = mf.dyson_first_order(lambda tp: np.cos(w * tp) * c, psi, t)
        expected = psi.amplitudes + (np.sin(w * t) / w) * (c.toarray() @ psi.amplitudes) / 1j
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10
