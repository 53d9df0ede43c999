import csv
import json
from pathlib import Path

import numpy as np
import pytest

import monofield as mf
from monofield.cli import load_config, main
from monofield.dynamics import resonance_kernel
from monofield.emission import EXCITED
from monofield.standard import (
    MAX_MODES,
    MAX_NMAX,
    standard_first_order_emission,
)


def z_modes(*omegas):
    # distinct directions so labels differ even at equal |kappa|
    axes = [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
            (1.0, 1.0, 0.0)]
    return tuple(mf.mode(+1, tuple(w * a for a in ax))
                 for w, ax in zip(omegas, axes))


class TestStandardLayout:
    def test_dimension_grows_exponentially(self):
        layout = mf.build_standard_layout(z_modes(1.0, 2.0, 3.0, 4.0), 3)
        assert layout.dimension == 256

    def test_caps_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            mf.StandardLayout(z_modes(1.0, 2.0, 3.0, 4.0) + (mf.abstract_mode(5.0),), 2)
        with pytest.raises(ValueError, match="cap"):
            mf.build_standard_layout(z_modes(1.0), MAX_NMAX + 1)
        assert MAX_MODES == 4

    def test_flatten_orders_mode_zero_slowest(self):
        layout = mf.build_standard_layout(z_modes(1.0, 2.0), 2)
        assert layout.flatten((0, 0)) == 0
        assert layout.flatten((0, 1)) == 1
        assert layout.flatten((1, 0)) == 3


class TestStandardOperators:
    def test_interior_commutators_are_kronecker_delta(self):
        layout = mf.build_standard_layout(z_modes(1.0, 2.0), 2)
        ops = [mf.standard_mode_annihilator(layout, k) for k in range(2)]
        # interior: every occupation strictly below nmax
        interior = [i for i in range(layout.dimension)
                    if all(n < layout.nmax for n in np.unravel_index(
                        i, (layout.fock_dim,) * 2))]
        eye = np.eye(layout.dimension)
        for k in range(2):
            for l in range(2):
                comm = ops[k] @ ops[l].conj().T - ops[l].conj().T @ ops[k]
                expected = eye if k == l else 0 * eye
                sub = (comm - expected)[np.ix_(interior, interior)]
                assert np.max(np.abs(sub)) < 1e-13

    def test_cross_mode_double_creation_is_nonzero(self):
        layout = mf.build_standard_layout(z_modes(1.0, 2.0), 2)
        a0 = mf.standard_mode_annihilator(layout, 0)
        a1 = mf.standard_mode_annihilator(layout, 1)
        vac = layout.basis_state((0, 0))
        two_photon = a0.conj().T @ a1.conj().T @ vac
        assert np.linalg.norm(two_photon) == pytest.approx(1.0, abs=1e-14)
        assert two_photon[layout.flatten((1, 1))] == pytest.approx(1.0, abs=1e-14)

    def test_cross_mode_double_creation_on_config_compare(self):
        cfg, _ = load_config(Path(__file__).parent / "data" / "config_compare.json")
        run = mf.standard_scheme_run(cfg.modes, cfg.standard_nmax, cfg.field)
        assert run["dimension"] == 256
        assert run["cross_mode_double_creation"] == 1.0

    def test_vacuum_energy_is_state_independent_sum(self, natural):
        layout = mf.build_standard_layout(z_modes(1.0, 2.0, 3.0), 2)
        h = mf.standard_hamiltonian(layout, natural)
        vac = layout.basis_state((0, 0, 0))
        assert np.vdot(vac, h @ vac).real == pytest.approx(3.0, abs=1e-13)
        assert mf.standard_vacuum_energy(layout.modes, natural) == pytest.approx(3.0)


class TestClosedFormsAgainstTensorProduct:
    """standard_scheme_run reports the standard side from closed forms; at
    every size the capped tensor-product layout allows, its operators agree."""

    @pytest.mark.parametrize("with_atom", [False, True], ids=["field", "atom"])
    @pytest.mark.parametrize("nmax", [1, 2, 3])
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_closed_forms_match_the_oracle(self, n_modes, nmax, with_atom):
        config = mf.FieldConfig(hbar=0.7, volume=2.0)
        modes = z_modes(0.8, 1.3, 2.1, 2.9)[:n_modes]
        atom = mf.AtomParams.make(1.1, 0.02, (1.0, 0.5j, 0.3)) if with_atom else None
        run = mf.standard_scheme_run(modes, nmax, config, atom=atom, t=0.9)

        layout = mf.build_standard_layout(modes, nmax)
        assert run["dimension"] == layout.dimension
        vac = layout.basis_state((0,) * n_modes)
        cross = 0.0
        if n_modes >= 2:
            a0 = mf.standard_mode_annihilator(layout, 0)
            a1 = mf.standard_mode_annihilator(layout, 1)
            cross = float(np.linalg.norm(a0.T @ (a1.T @ vac)))
        assert run["cross_mode_double_creation"] == cross
        vacuum = np.vdot(vac, mf.standard_hamiltonian(layout, config) @ vac).real
        assert abs(run["vacuum_energy"] - vacuum) <= 1e-13

        if not with_atom:
            assert "emission" not in run
            return
        emit_layout = mf.build_standard_layout(modes, nmax, with_atom=True)
        amps = standard_first_order_emission(atom, emit_layout.modes, config, 0.9)
        assert run["emission"].tolist() == amps.tolist()
        # first order from |vac, excited>: <1_k, ground|H|vac, excited>/hbar
        # times the resonance kernel, with H the tensor-product oracle's
        h = mf.standard_atom_field_hamiltonian(emit_layout, atom, config)
        start = emit_layout.flatten((0,) * n_modes, atom=EXCITED)
        for k, (amp, m) in enumerate(zip(run["emission"].tolist(), modes)):
            photon = [0] * n_modes
            photon[k] = 1
            element = h[emit_layout.flatten(photon), start] / config.hbar
            want = element * resonance_kernel(atom.omega0 - m.omega, 0.9)
            assert abs(amp - want) <= 1e-12 * abs(want)

    def test_no_tensor_product_beyond_the_cap(self, natural):
        modes = z_modes(0.8, 1.3, 2.1, 2.9) + (mf.abstract_mode(3.7),)
        with pytest.raises(ValueError, match="cap"):
            mf.build_standard_layout(modes, 3)
        run = mf.standard_scheme_run(modes, 3, natural)
        assert run["dimension"] == 4 ** 5
        assert run["cross_mode_double_creation"] == 1.0
        assert run["vacuum_energy"] == 0.5 * float(np.sum([m.omega for m in modes]))


class TestStandardEmission:
    def test_same_kernel_unweighted(self, natural):
        modes = z_modes(0.8, 1.3)
        layout = mf.build_standard_layout(modes, 2, with_atom=True)
        atom = mf.AtomParams.make(1.0, 0.02, (1.0, 0.5j, 0.0))
        amps = standard_first_order_emission(atom, layout.modes, natural, 0.9)
        for amp, mode in zip(amps.tolist(), modes):
            g = mf.coupling(mode, atom, natural)
            expected = atom.omega0 * atom.d * np.conj(g) \
                * resonance_kernel(atom.omega0 - mode.omega, 0.9)
            assert amp == pytest.approx(expected, abs=1e-15)
            assert abs(amp) > 0  # both modes populated from one vacuum

    def test_single_mode_schemes_coincide(self, natural):
        mode = z_modes(1.1)[0]
        atom = mf.AtomParams.make(1.0, 0.02, (1.0, 0.0, 0.0))
        std_layout = mf.build_standard_layout([mode], 2, with_atom=True)
        std = standard_first_order_emission(atom, std_layout.modes, natural, 1.4)
        layout = mf.build_layout([mode], 2, with_atom=True)
        amps = np.zeros(layout.dimension, dtype=complex)
        amps[layout.flatten(0, 0, EXCITED)] = 1.0
        ours = mf.first_order_emission(mf.StateVector(layout, amps),
                                       atom, natural, 1.4)
        assert ours.spontaneous(0) == pytest.approx(std[0], abs=1e-12)

    def test_two_mode_weighting_is_the_only_difference(self, natural):
        modes = z_modes(0.9, 1.2)
        atom = mf.AtomParams.make(1.0, 0.02, (1.0, 0.0, 0.0))
        std_layout = mf.build_standard_layout(modes, 2, with_atom=True)
        std = standard_first_order_emission(atom, std_layout.modes, natural, 1.0)
        layout = mf.build_layout(modes, 2, with_atom=True)
        weights = [0.6, 0.8]
        amps = np.zeros(layout.dimension, dtype=complex)
        for k, w in enumerate(weights):
            amps[layout.flatten(k, 0, EXCITED)] = w
        ours = mf.first_order_emission(mf.StateVector(layout, amps),
                                       atom, natural, 1.0)
        for k, w in enumerate(weights):
            assert ours.spontaneous(k) == pytest.approx(
                w * std[k], abs=1e-14)


class TestJaynesCummingsOracle:
    def test_analytic_matches_own_diagonalization(self, natural):
        mode = z_modes(1.0)[0]
        e = mf.polarization(mode.kappa, mode.s)
        atom = mf.AtomParams(omega0=1.0, d=0.04, u=tuple(np.conj(e)))
        layout = mf.build_standard_layout([mode], 3, with_atom=True)
        h = mf.standard_atom_field_hamiltonian(layout, atom, natural)
        evals, evecs = np.linalg.eigh(h)
        psi0 = layout.basis_state((0,), atom=1)
        g = mf.coupling(mode, atom, natural)
        lam = mf.jc_rabi_half_frequency(atom, g)
        period = 2.0 * np.pi / (2.0 * lam)
        for t in np.linspace(0.0, 2.5 * period, 40):
            amps = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi0))
            pop = float(np.sum(np.abs(amps[layout.field_dim:]) ** 2))
            assert abs(pop - mf.jc_excited_population(atom, g, 0, float(t))) < 1e-10

    def test_resonant_population_is_sinusoid_with_rabi_period(self, natural):
        mode = z_modes(1.0)[0]
        e = mf.polarization(mode.kappa, mode.s)
        atom = mf.AtomParams(omega0=1.0, d=0.04, u=tuple(np.conj(e)))
        g = mf.coupling(mode, atom, natural)
        lam = mf.jc_rabi_half_frequency(atom, g)
        period = 2.0 * np.pi / (2.0 * lam)
        assert mf.jc_excited_population(atom, g, 0, 0.0) == 1.0
        assert mf.jc_excited_population(atom, g, 0, period / 2) == pytest.approx(0.0, abs=1e-12)
        assert mf.jc_excited_population(atom, g, 0, period) == pytest.approx(1.0, abs=1e-12)
        t = 0.37 * period
        assert mf.jc_excited_population(atom, g, 0, t) == pytest.approx(
            np.cos(lam * t) ** 2, abs=1e-12)


class TestCompareReport:
    def test_dimension_contrast(self, natural):
        modes = z_modes(1.0, 2.0, 3.0, 4.0)
        single = mf.single_oscillator_run(modes, 3, natural)
        std = mf.standard_scheme_run(modes, 3, natural)
        report = mf.compare_report(single, std)
        assert report["dimensions"] == {"single_oscillator": 16, "standard": 256}

    def test_vacuum_energy_section(self, natural):
        modes = z_modes(1.0, 2.0)
        single = mf.single_oscillator_run(modes, 3, natural, seed=3)
        std = mf.standard_scheme_run(modes, 2, natural)
        report = mf.compare_report(single, std)
        vac = report["vacuum_energy"]
        assert vac["single_oscillator_min"] == pytest.approx(0.5)
        assert vac["single_oscillator_max"] == pytest.approx(1.0)
        assert vac["standard"] == pytest.approx(1.5)
        for sample in vac["single_oscillator_samples"]:
            assert 0.5 - 1e-12 <= sample <= 1.0 + 1e-12

    def test_algebra_contrast(self, natural):
        modes = z_modes(1.0, 2.0)
        report = mf.compare_report(mf.single_oscillator_run(modes, 2, natural),
                                   mf.standard_scheme_run(modes, 2, natural))
        algebra = report["algebra"]
        assert algebra["cross_mode_double_creation_single_oscillator"] == 0.0
        assert algebra["cross_mode_double_creation_standard"] == pytest.approx(1.0)

    def test_emission_section(self, natural):
        modes = z_modes(0.9, 1.2)
        atom = mf.AtomParams.make(1.0, 0.02, (1.0, 0.0, 0.0))
        report = mf.compare_report(
            mf.single_oscillator_run(modes, 3, natural, atom=atom, t=1.0),
            mf.standard_scheme_run(modes, 2, natural, atom=atom, t=1.0))
        rows = report["emission"]
        assert len(rows) == 2
        for row in rows:
            # the amplitude ratio is exactly the vacuum weight of that mode
            assert row["amplitude_ratio"] == pytest.approx(row["weight"], abs=1e-12)


def random_compare_config(seed: int) -> dict:
    """1-6 random modes and a complex dipole direction.  At even seeds the
    direction is (1, i, 0) and mode 0 runs along +z with s = +1: its
    polarization (1, i, 0)/sqrt(2) gives e . u = 0 exactly, so that mode's
    standard amplitude is exactly zero."""
    rng = np.random.default_rng(seed)
    modes = [{"s": int(rng.choice([-1, 1])), "kappa": rng.uniform(-2.0, 2.0, 3).tolist()}
             for _ in range(int(rng.integers(1, 7)))]
    direction = rng.normal(size=(3, 2)).tolist()
    if seed % 2 == 0:
        modes[0] = {"s": 1, "kappa": [0.0, 0.0, float(rng.uniform(0.5, 2.0))]}
        direction = [1.0, [0.0, 1.0], 0.0]
    return {"modes": modes, "nmax": int(rng.integers(1, 4)),
            "atom": {"omega0": float(rng.uniform(0.5, 2.0)), "dipole": 0.02,
                     "direction": direction},
            "times": [float(rng.uniform(0.1, 3.0))]}


class TestComparisonOutputs:
    """comparison.json's emission rows and comparison_emission.csv are written
    from the same amplitude arrays."""

    @pytest.mark.parametrize("seed", range(12))
    def test_json_rows_and_csv_agree(self, tmp_path, seed):
        doc = random_compare_config(seed)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code = main(["compare-standard", "--config", str(config), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "comparison.json").read_text())
        check = report.get("jaynes_cummings_check")
        assert code == (1 if check and not check["ok"] else 0)
        rows = report["emission"]
        with open(tmp_path / "comparison_emission.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert len(rows) == len(table) == len(doc["modes"])
        for k, (row, line) in enumerate(zip(rows, table)):
            assert row["mode_index"] == k and line["mode_index"] == str(k)
            assert repr(row["omega"]) == line["omega"]
            for key, column in [("single_oscillator_amplitude", "single"),
                                ("standard_amplitude", "standard"), ("weight", "weight")]:
                assert [repr(x) for x in row[key]] == \
                    [line[f"{column}_re"], line[f"{column}_im"]]
            single = complex(*row["single_oscillator_amplitude"])
            standard = complex(*row["standard_amplitude"])
            if standard == 0:
                assert row["amplitude_ratio"] is None
            else:
                ratio = single / standard
                assert [repr(x) for x in row["amplitude_ratio"]] == \
                    [repr(ratio.real), repr(ratio.imag)]
        # the mode orthogonal to the dipole, and only it, has no ratio
        assert [row["amplitude_ratio"] is None for row in rows] == \
            [seed % 2 == 0 and row["omega"] == doc["modes"][0]["kappa"][2] for row in rows]

    @pytest.mark.parametrize("seed", range(6))
    def test_standard_amplitudes_are_the_scalar_formula(self, seed):
        doc = random_compare_config(seed)
        modes = tuple(mf.mode(m["s"], m["kappa"]) for m in doc["modes"])
        direction = [complex(*x) if isinstance(x, list) else x
                     for x in doc["atom"]["direction"]]
        atom = mf.AtomParams.make(doc["atom"]["omega0"], 0.02, direction)
        config = mf.FieldConfig(hbar=0.7, volume=2.0)
        t = doc["times"][0]
        amps = standard_first_order_emission(atom, modes, config, t)
        want = [complex(atom.omega0 * atom.d * np.conj(mf.coupling(m, atom, config))
                        * resonance_kernel(atom.omega0 - m.omega, t)) for m in modes]
        assert [(repr(a.real), repr(a.imag)) for a in amps.tolist()] == \
            [(repr(a.real), repr(a.imag)) for a in want]
