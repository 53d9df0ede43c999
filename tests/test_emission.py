import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

import monofield as mf
from monofield import quadrature
from monofield.cli import _box_modes, load_config
from monofield.dynamics import resonance_kernel
from monofield.emission import EXCITED, GROUND, _mode_couplings, first_order_table
from conftest import sigma3, sigma_plus

DATA = Path(__file__).parent / "data"


def z_mode(omega=2.0, s=+1):
    return mf.mode(s, (0.0, 0.0, omega))


def excited_state(layout, weights):
    """Excited-atom state with photon amplitudes {(k, n): amp}."""
    amps = np.zeros(layout.dimension, dtype=complex)
    for (k, n), value in weights.items():
        amps[layout.flatten(k, n, EXCITED)] = value
    return mf.StateVector(layout, amps).normalize()


def interaction_picture_exact(layout, atom, config, psi0, t):
    h_full = mf.atom_field_hamiltonian(layout, atom, config)
    h_free = mf.free_hamiltonian_with_atom(layout, atom, config)
    psi_s = mf.evolve(h_full, psi0, t, config.hbar)
    return mf.evolve(h_free, psi_s, -t, config.hbar)


def scalar_coupling(mode, atom, config):
    """The coupling as one product of Python scalars, the form the coupling
    row must reproduce bit for bit."""
    e = mf.polarization(mode.kappa, mode.s)
    return 1j * math.sqrt(1.0 / (2.0 * config.hbar * mode.omega * config.volume)) \
        * complex(np.dot(e, np.asarray(atom.u)))


def scattered_coupling_blocks(layout, atom, config, gs):
    """hbar*omega0*d * sum_k (gs_k a_k sigma+ + h.c.) written entry by entry
    onto zero blocks: hbar*omega0*d*(gs_k*sqrt(n)) at the excited row n-1,
    ground column n of mode k's block, and its conjugate at the transposed
    place; the reference for the coupling blocks of the interaction picture."""
    b = layout.fock_dim
    scale = config.hbar * atom.omega0 * atom.d
    blocks = np.zeros(layout.block_shape, dtype=complex)
    for k, g in enumerate(gs):
        for n in range(1, b):
            entry = scale * (g * complex(math.sqrt(n)))
            blocks[k, b + n - 1, n] = entry
            blocks[k, n, b + n - 1] = entry.conjugate()
    return blocks


class TestCoupling:
    def test_closed_form_value(self, natural):
        mode = z_mode(omega=2.0)
        e = mf.polarization(mode.kappa, mode.s)
        atom = mf.AtomParams(omega0=1.0, d=1.0, u=tuple(np.conj(e)))
        g = mf.coupling(mode, atom, natural)
        # e.u = e.e* = 1, so g = i*sqrt(1/(2*omega)) = i/2
        assert g == pytest.approx(0.5j, abs=1e-14)

    def test_longitudinal_dipole_decouples(self, natural):
        atom = mf.AtomParams(omega0=1.0, d=1.0, u=(0.0, 0.0, 1.0))
        for s in (+1, -1):
            g = mf.coupling(z_mode(s=s), atom, natural)
            assert abs(g) < 1e-15

    def test_polarization_sum_completeness(self, natural):
        rng = np.random.default_rng(5)
        for _ in range(50):
            kappa = rng.normal(size=3)
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            u /= np.linalg.norm(u)
            atom = mf.AtomParams(omega0=1.0, d=1.0, u=tuple(u))
            omega = np.linalg.norm(kappa)
            total = sum(abs(mf.coupling(mf.mode(s, kappa), atom, natural)) ** 2
                        for s in (+1, -1))
            n_hat = kappa / omega
            expected = (1.0 - abs(np.dot(n_hat, u)) ** 2) / (2.0 * omega)
            assert total == pytest.approx(expected, abs=1e-13)

    def test_abstract_mode_rejected(self, natural):
        atom = mf.AtomParams(omega0=1.0, d=1.0, u=(1.0, 0.0, 0.0))
        abstract = mf.abstract_mode(1.0)
        message = f"coupling requires a propagating mode; {abstract} is abstract"
        for couple in (lambda: mf.coupling(abstract, atom, natural),
                       lambda: _mode_couplings((z_mode(), abstract), atom, natural)):
            with pytest.raises(ValueError) as exc:
                couple()
            assert str(exc.value) == message

    def test_row_matches_the_scalar_formula_bit_for_bit(self, rng):
        # box modes include kappa along +-z (the fixed fallback frame) and the
        # directions are complex, real or along z, some with zero components
        for trial in range(40):
            modes, volume = _box_modes({"edge": float(rng.uniform(0.5, 5.0)),
                                        "max_index": 1 + trial % 2}, float(rng.uniform(0.5, 2.0)))
            modes = [modes[i] for i in rng.permutation(len(modes))]
            u = rng.normal(size=3) + 1j * rng.normal(size=3) * rng.choice([0.0, 1.0])
            u[rng.uniform(size=3) < 0.3] = 0.0
            atom = mf.AtomParams.make(1.0, 0.1, u if u.any() else (0.0, 0.0, 1.0))
            config = mf.FieldConfig(hbar=float(rng.uniform(0.5, 2.0)), volume=volume)
            want = np.array([scalar_coupling(m, atom, config) for m in modes])
            got = _mode_couplings(modes, atom, config)
            assert got.tobytes() == want.tobytes()
            k = int(rng.integers(len(modes)))
            assert mf.coupling(modes[k], atom, config) == want[k]

    def test_atom_params_validation(self):
        with pytest.raises(ValueError, match="unit"):
            mf.AtomParams(omega0=1.0, d=0.1, u=(1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="omega0"):
            mf.AtomParams(omega0=-1.0, d=0.1, u=(1.0, 0.0, 0.0))
        for bad in [(math.nan, 0.0, 0.0), (1.0, complex(0.0, math.nan), 0.0),
                    (math.inf, 0.0, 0.0)]:
            with pytest.raises(ValueError, match="finite"):
                mf.AtomParams(omega0=1.0, d=0.1, u=bad)
        normalized = mf.AtomParams.make(1.0, 0.1, (3.0, 4.0, 0.0))
        assert abs(np.linalg.norm(normalized.u) - 1.0) < 1e-12

    @pytest.mark.parametrize("direction, plain", [
        ((1e200, 1e200, 0.0), (1.0, 1.0, 0.0)),
        ((1.5e308, 0.0, -1.5e308j), (1.0, 0.0, -1.0j)),
        ((1e-200, 0.0, 1e-200j), (1.0, 0.0, 1.0j)),
    ], ids=["1e200", "1.5e308", "1e-200"])
    def test_direction_whose_squares_under_or_overflow_is_normalized(self, direction, plain):
        # an underflowing one used to be refused as a zero direction
        assert mf.AtomParams.make(1.0, 0.1, direction) == mf.AtomParams.make(1.0, 0.1, plain)


class TestAtomFieldHamiltonian:
    def test_decoupled_spectrum(self, natural):
        modes = [z_mode(1.0), z_mode(2.0)]
        layout = mf.build_layout(modes, 2, with_atom=True)
        atom = mf.AtomParams(omega0=0.7, d=0.0, u=(1.0, 0.0, 0.0))
        h = mf.atom_field_hamiltonian(layout, atom, natural)
        expected = sorted(om * (n + 0.5) + sign * 0.35
                          for om in (1.0, 2.0) for n in range(3)
                          for sign in (-1, +1))
        assert np.allclose(sorted(np.linalg.eigvalsh(h.toarray())), expected,
                           atol=1e-12)

    def test_hermitian(self, natural):
        layout = mf.build_layout([z_mode(1.0), z_mode(2.0)], 2, with_atom=True)
        atom = mf.AtomParams.make(1.0, 0.05, (1.0, 1.0j, 0.0))
        h = mf.atom_field_hamiltonian(layout, atom, natural)
        dense = h.toarray()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-13

    def test_resonant_jc_splitting(self, natural):
        mode = z_mode(1.0)
        layout = mf.build_layout([mode], 3, with_atom=True)
        e = mf.polarization(mode.kappa, mode.s)
        atom = mf.AtomParams(omega0=1.0, d=0.01, u=tuple(np.conj(e)))
        g = mf.coupling(mode, atom, natural)
        lam = atom.omega0 * atom.d * abs(g)
        h = mf.atom_field_hamiltonian(layout, atom, natural)
        evals = np.sort(np.linalg.eigvalsh(h.toarray()))
        expected = sorted(
            [0.0]                                    # |0, -> is uncoupled
            + [n + 1.0 + sign * lam * np.sqrt(n + 1.0)
               for n in range(3) for sign in (-1, +1)]
            + [4.0])                                 # unpaired top rung |3, +>
        assert np.allclose(evals, expected, atol=1e-12)

    def test_spectrum_matches_standard_scheme_single_mode(self, natural):
        mode = z_mode(1.0)
        layout = mf.build_layout([mode], 3, with_atom=True)
        e = mf.polarization(mode.kappa, mode.s)
        atom = mf.AtomParams(omega0=1.0, d=0.02, u=tuple(np.conj(e)))
        h = mf.atom_field_hamiltonian(layout, atom, natural)
        std_layout = mf.build_standard_layout([mode], 3, with_atom=True)
        h_std = mf.standard_atom_field_hamiltonian(std_layout, atom, natural)
        ours = np.sort(np.linalg.eigvalsh(h.toarray()))
        std = np.sort(np.linalg.eigvalsh(h_std))
        assert np.max(np.abs(ours - std)) < 1e-12

    def test_requires_atom_factor(self, natural):
        layout = mf.build_layout([z_mode(1.0)], 2)
        atom = mf.AtomParams(omega0=1.0, d=0.1, u=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="atom"):
            mf.atom_field_hamiltonian(layout, atom, natural)


class TestInteractionHamiltonian:
    def setup_method(self):
        self.modes = [z_mode(0.8), z_mode(1.3)]
        self.layout = mf.build_layout(self.modes, 2, with_atom=True)
        self.atom = mf.AtomParams.make(1.0, 0.05, (1.0, -0.5j, 0.2))

    def test_t_zero_is_bare_coupling(self, natural):
        h_i = mf.interaction_hamiltonian(self.layout, self.atom, natural, 0.0)
        bare = mf.atom_field_hamiltonian(self.layout, self.atom, natural).toarray() \
            - mf.free_hamiltonian_with_atom(self.layout, self.atom, natural).toarray()
        assert np.max(np.abs(h_i.toarray() - bare)) < 1e-14

    def test_matches_conjugation_by_free_propagator(self, natural):
        t = 0.9
        h0 = mf.free_hamiltonian_with_atom(self.layout, self.atom, natural)
        v = mf.interaction_hamiltonian(self.layout, self.atom, natural, 0.0)
        u = scipy.linalg.expm(1j * t * h0.toarray())
        conj = u @ v.toarray() @ u.conj().T
        h_i = mf.interaction_hamiltonian(self.layout, self.atom, natural, t)
        assert np.max(np.abs(conj - h_i.toarray())) < 1e-10

    def test_hermitian_at_sampled_times(self, natural):
        for t in (0.0, 0.4, 2.7, 11.0):
            h_i = mf.interaction_hamiltonian(self.layout, self.atom, natural, t)
            dense = h_i.toarray()
            assert np.max(np.abs(dense - dense.conj().T)) < 1e-13


class TestFirstOrderEmission:
    def setup_method(self):
        self.modes = [z_mode(0.8), z_mode(1.0), z_mode(1.3)]
        self.layout = mf.build_layout(self.modes, 4, with_atom=True)
        self.atom = mf.AtomParams.make(1.0, 0.01, (1.0, 0.3j, 0.0))

    def test_printed_formula(self, natural):
        initial = excited_state(self.layout, {(0, 0): 1.0, (1, 1): 1.0j})
        t = 1.0
        result = mf.first_order_emission(initial, self.atom, natural, t)
        for k, n in [(0, 0), (1, 1)]:
            psi = initial.amplitude(k, n, EXCITED)
            mode = self.modes[k]
            g = mf.coupling(mode, self.atom, natural)
            expected = self.atom.omega0 * self.atom.d \
                * resonance_kernel(self.atom.omega0 - mode.omega, t) \
                * psi * np.sqrt(n + 1) * np.conj(g)
            got = result[k, n]
            assert got == pytest.approx(expected, abs=1e-15)

    def test_resonant_mode_kernel_is_minus_it(self, natural):
        initial = excited_state(self.layout, {(1, 0): 1.0})
        result = mf.first_order_emission(initial, self.atom, natural, 1.0)
        g = mf.coupling(self.modes[1], self.atom, natural)
        # mode 1 sits exactly at omega0: kernel -> -i*t = -i
        expected = self.atom.omega0 * self.atom.d * (-1j) * np.conj(g)
        assert result[1, 0] == pytest.approx(expected, abs=1e-14)

    def test_absent_modes_get_exactly_zero(self, natural):
        initial = excited_state(self.layout, {(0, 0): 1.0})
        result = mf.first_order_emission(initial, self.atom, natural, 0.7)
        for amplitude in result[1:].ravel():
            assert amplitude == 0.0

    def test_channel_split_and_enhancement(self, natural):
        initial = excited_state(self.layout, {(0, 0): 0.6, (0, 2): 0.8})
        result = mf.first_order_emission(initial, self.atom, natural, 0.5)
        # column 0 is spontaneous emission, columns n = 1, 2, 3 stimulated
        spont, stim = result[0, 0], result[0, 1:]
        assert stim.shape == (3,)
        assert stim[0] == 0.0
        # same kernel and coupling: ratio reduces to sqrt(n+1) * Psi ratio
        ratio = stim[1] / spont
        psi0 = initial.amplitude(0, 0, EXCITED)
        psi2 = initial.amplitude(0, 2, EXCITED)
        assert ratio == pytest.approx(np.sqrt(3) * psi2 / psi0, abs=1e-12)

    def test_ground_component_rejected(self, natural):
        amps = np.zeros(self.layout.dimension, dtype=complex)
        amps[self.layout.flatten(0, 0, EXCITED)] = 1.0
        amps[self.layout.flatten(0, 0, GROUND)] = 0.1
        state = mf.StateVector(self.layout, amps).normalize()
        with pytest.raises(ValueError, match="ground"):
            mf.first_order_emission(state, self.atom, natural, 1.0)

    @given(scale=st.floats(0.1, 10.0), dscale=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity_in_dipole_and_weights(self, scale, dscale):
        natural = mf.FieldConfig()
        base = mf.StateVector(self.layout, excited_state(
            self.layout, {(0, 0): 1.0, (2, 1): 0.5}).amplitudes)
        scaled = mf.StateVector(self.layout, scale * base.amplitudes)
        atom2 = mf.AtomParams(self.atom.omega0, self.atom.d * dscale, self.atom.u)
        r1 = mf.first_order_emission(base, self.atom, natural, 1.0)
        r2 = mf.first_order_emission(scaled, atom2, natural, 1.0)
        for a, b in zip(r1.ravel(), r2.ravel()):
            assert b == pytest.approx(scale * dscale * a, rel=1e-12, abs=1e-18)

    def test_closed_form_vs_quadrature(self, natural):
        initial = excited_state(self.layout, {(0, 0): 0.5, (1, 0): 0.5,
                                              (2, 1): 1.0 / np.sqrt(2)})
        t = 1.2
        closed = mf.first_order_state(initial, self.atom, natural, t)
        quad = mf.dyson_first_order(
            lambda tp: mf.interaction_hamiltonian(self.layout, self.atom, natural, tp),
            initial, t, hbar=natural.hbar)
        assert np.max(np.abs(closed.amplitudes - quad.amplitudes)) < 1e-10

    def test_error_scales_quadratically_in_coupling(self, natural):
        initial = excited_state(self.layout, {(0, 0): 0.7, (1, 0): 0.7140714,
                                              (2, 1): 0.02})
        t = 1.0
        couplings = np.logspace(-3, -1, 7)
        devs = []
        for d in couplings:
            atom_d = mf.AtomParams(self.atom.omega0, float(d), self.atom.u)
            pert = mf.first_order_state(initial, atom_d, natural, t)
            exact = interaction_picture_exact(self.layout, atom_d, natural, initial, t)
            devs.append(np.linalg.norm(pert.amplitudes - exact.amplitudes))
        slope = np.polyfit(np.log(couplings), np.log(devs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_first_order_norm_excess_is_second_order(self, natural):
        initial = excited_state(self.layout, {(0, 0): 1.0})
        excesses = []
        for d in (0.01, 0.02):
            atom_d = mf.AtomParams(self.atom.omega0, d, self.atom.u)
            pert = mf.first_order_state(initial, atom_d, natural, 1.0)
            excesses.append(pert.norm ** 2 - 1.0)
        assert excesses[0] > 0
        assert excesses[1] / excesses[0] == pytest.approx(4.0, rel=1e-6)


def emission_loop(initial, atom, config, t):
    """The first-order amplitudes one at a time, each the printed product
    of Python scalars multiplied left to right: the reference for the table."""
    layout = initial.layout
    excited = layout.view(initial.amplitudes)[EXCITED].tolist()
    table = np.empty((layout.n_modes, layout.nmax), dtype=complex)
    for k, m in enumerate(layout.modes):
        g_conj = np.conj(mf.coupling(m, atom, config))
        kernel = resonance_kernel(atom.omega0 - m.omega, t)
        for n in range(layout.nmax):
            amp = atom.omega0 * atom.d * kernel * excited[k][n] * math.sqrt(n + 1) * g_conj
            table[k, n] = complex(amp)
    return table


def random_emission_case(rng):
    """(initial, atom, config, t): 1-8 modes, one exactly resonant (the
    series kernel) and one within 1e-9 of resonance, nmax 1-5, an excited
    state with exact zeros and signed zeros, and t = 0, t < 0 or t > 0."""
    omega0 = float(rng.uniform(0.5, 2.0))
    modes = [mf.mode(+1, (0.0, 0.0, omega0)), mf.mode(-1, (omega0 * (1 + 1e-9), 0.0, 0.0))]
    for _ in range(rng.integers(0, 7)):
        u = rng.normal(size=3)
        modes.append(mf.mode(int(rng.choice([-1, 1])),
                             tuple(rng.uniform(0.2, 3.0) * u / np.linalg.norm(u))))
    order = rng.permutation(len(modes))
    modes = [modes[i] for i in order[:rng.integers(1, len(modes) + 1)]]
    layout = mf.build_layout(modes, int(rng.integers(1, 6)), with_atom=True)
    parts = rng.normal(size=(layout.n_modes, layout.fock_dim, 2))
    parts[rng.uniform(size=parts.shape) < 0.25] = 0.0
    parts[rng.uniform(size=parts.shape) < 0.25] = -0.0
    parts[rng.uniform(size=layout.n_modes) < 0.3] = 0.0  # empty sectors
    amps = np.zeros(layout.dimension, dtype=complex)
    layout.view(amps)[EXCITED] = parts.view(complex)[..., 0]
    layout.view(amps)[GROUND] = complex(-0.0, 0.0)
    d = float(rng.choice([0.0, rng.uniform(0.0, 0.1)]))
    atom = mf.AtomParams.make(omega0, d, rng.normal(size=3) + 1j * rng.normal(size=3))
    config = mf.FieldConfig(hbar=float(rng.uniform(0.5, 2.0)),
                            volume=float(rng.uniform(0.5, 5.0)))
    t = float(rng.choice([0.0, -1.0, 1.0])) * float(rng.uniform(0.1, 5.0))
    return mf.StateVector(layout, amps), atom, config, t


class TestAmplitudeTable:
    def test_matches_the_amplitude_loop_bit_for_bit(self, rng):
        for _ in range(300):
            initial, atom, config, t = random_emission_case(rng)
            got = mf.first_order_emission(initial, atom, config, t)
            assert got.shape == (initial.layout.n_modes, initial.layout.nmax)
            assert got.tobytes() == emission_loop(initial, atom, config, t).tobytes()

    def test_first_order_state_adds_one_amplitude_at_a_time(self, rng):
        for _ in range(50):
            initial, atom, config, t = random_emission_case(rng)
            table = mf.first_order_emission(initial, atom, config, t)
            want = initial.amplitudes.copy()
            for (k, n), amp in np.ndenumerate(table):
                want[initial.layout.flatten(k, n + 1, GROUND)] += amp
            got = mf.first_order_state(initial, atom, config, t).amplitudes
            assert got.tobytes() == want.tobytes()

    def test_interaction_picture_matches_the_real_pair_formula(self, rng):
        for _ in range(50):
            initial, atom, config, t = random_emission_case(rng)
            layout = initial.layout
            gs = np.array([mf.coupling(m, atom, config) for m in layout.modes])
            i_detunings = 1j * (atom.omega0 - layout.omegas)
            g_re, g_im = gs.real[:, None], gs.imag[:, None] * np.array([-1.0, 1.0])
            # (gr*pr - gi*pi, gr*pi + gi*pr) on the (re, im) pairs of the phases
            phases = np.exp(i_detunings * t).view(float).reshape(-1, 2)
            pairs = g_re * phases + g_im * phases[:, ::-1]
            want = scattered_coupling_blocks(layout, atom, config, pairs.view(complex).ravel())
            got = mf.interaction_picture(layout, atom, config)(t).data
            assert got.tobytes() == want.tobytes()

    def test_interaction_picture_at_many_times_is_each_time_alone(self, rng):
        for _ in range(50):
            initial, atom, config, t = random_emission_case(rng)
            at = mf.interaction_picture(initial.layout, atom, config)
            times = np.array([t, 0.0, -0.0, -t, 3.7 * t, 1e10])
            want = np.stack([at(float(s)).data for s in times])
            assert at(times).tobytes() == want.tobytes()

    def test_channels_read_the_read_only_table(self, natural):
        layout = mf.build_layout([z_mode(0.8), z_mode(1.0), z_mode(1.3)], 3, with_atom=True)
        initial = excited_state(layout, {(0, 0): 0.6, (1, 2): 0.8j, (2, 1): 0.1})
        atom = mf.AtomParams.make(1.0, 0.01, (1.0, 0.3j, 0.0))
        table = mf.first_order_emission(initial, atom, natural, 0.9)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        assert table.tobytes() == \
            first_order_table(initial, atom, natural, [0.9], [atom.d])[0, 0].tobytes()
        # a spontaneous amplitude from (0, 0), stimulated ones from (1, 2) and (2, 1)
        assert [tuple(kn) for kn in np.argwhere(table)] == [(0, 0), (1, 2), (2, 1)]


def quad_vec_dyson(initial, atom, config, t, limit=10000):
    """The first-order Dyson integral by scipy's quad_vec, one scalar-time
    interaction picture per node: (integral, error estimate, converged)."""
    at = mf.interaction_picture(initial.layout, atom, config)
    integral, err, info = quad_vec(lambda tp: at(tp).matvec(initial.amplitudes), 0.0, t,
                                   epsabs=1e-12, limit=limit, full_output=True)
    return integral, err, info.success


class TestDysonQuadrature:
    """The numpy Gauss-Kronrod quadrature against scipy's quad_vec."""

    def test_matches_quad_vec_on_random_cases(self, rng):
        for _ in range(60):
            initial, atom, config, t = random_emission_case(rng)
            integral, _, converged = quad_vec_dyson(initial, atom, config, t)
            assert converged
            want = initial.amplitudes + integral / (1j * config.hbar)
            at = mf.interaction_picture(initial.layout, atom, config)
            got = mf.dyson_first_order(at, initial, t, hbar=config.hbar).amplitudes
            ulp = np.spacing(np.linalg.norm(integral))
            assert np.max(np.abs(got - want), initial=0.0) <= 4 * ulp

    @pytest.mark.parametrize("t, limit", [(1e10, 300), (1e300, 10000)],
                             ids=["interval_limit", "not_a_number"])
    def test_refusal_matches_quad_vec(self, monkeypatch, t, limit):
        cfg, _ = load_config(DATA / "config_emission.json")
        layout = mf.build_layout(cfg.modes, cfg.nmax, with_atom=True)
        initial = mf.superposition(layout, cfg.emission_initial)
        # an interval limit lowered on both sides keeps quad_vec's run short
        monkeypatch.setattr(quadrature, "_INTERVAL_LIMIT", limit)
        at = mf.interaction_picture(layout, cfg.atom, cfg.field)
        with np.errstate(over="ignore", invalid="ignore"):
            _, err, converged = quad_vec_dyson(initial, cfg.atom, cfg.field, t, limit=limit)
            with pytest.raises(ValueError) as refused:
                mf.dyson_first_order(at, initial, t, hbar=cfg.field.hbar)
        assert not converged
        assert str(refused.value) == f"quadrature did not converge (error estimate {err:.3e})"

    def test_refusal_at_the_interval_limit(self):
        # quad_vec's error estimate on this config and time (13 s of scipy)
        cfg, _ = load_config(DATA / "config_emission.json")
        layout = mf.build_layout(cfg.modes, cfg.nmax, with_atom=True)
        initial = mf.superposition(layout, cfg.emission_initial)
        at = mf.interaction_picture(layout, cfg.atom, cfg.field)
        with pytest.raises(ValueError) as refused:
            mf.dyson_first_order(at, initial, 1e10, hbar=cfg.field.hbar)
        assert str(refused.value) == "quadrature did not converge (error estimate 2.237e+07)"


class TestExcitationNumber:
    def test_conserved_by_rwa_hamiltonian(self, natural):
        modes = [z_mode(0.9), z_mode(1.2)]
        layout = mf.build_layout(modes, 3, with_atom=True)
        atom = mf.AtomParams.make(1.0, 0.08, (1.0, 0.0, 0.0))
        h = mf.atom_field_hamiltonian(layout, atom, natural)
        ladders = [mf.mode_annihilator(layout, k) for k in range(2)]
        n_exc = sum(((a.dag() @ a).toarray() for a in ladders),
                    start=0.5 * (sigma3(layout).toarray() + np.eye(layout.dimension)))
        dense = h.toarray()
        assert np.max(np.abs(dense @ n_exc - n_exc @ dense)) < 1e-12
        psi0 = excited_state(layout, {(0, 1): 1.0}).amplitudes
        psi = mf.evolve(h, mf.StateVector(layout, psi0), 3.0).amplitudes
        before = np.vdot(psi0, n_exc @ psi0).real
        after = np.vdot(psi, n_exc @ psi).real
        assert abs(after - before) < 1e-10


class TestVacuumSubspace:
    def test_uniform_two_mode_vacuum(self, natural):
        layout = mf.build_layout([mf.abstract_mode(1.0), mf.abstract_mode(2.0)], 3)
        psi = mf.superposition(layout, {(0, 0): 1.0, (1, 0): 1.0})
        check = mf.vacuum_subspace_check(psi, natural)
        assert check
        assert check.field_energy == pytest.approx(0.75, abs=1e-12)

    def test_photon_admixture_fails(self, natural):
        layout = mf.build_layout([mf.abstract_mode(1.0)], 3)
        psi = mf.superposition(layout, {(0, 0): 1.0, (0, 1): 0.01})
        assert not mf.vacuum_subspace_check(psi, natural)

    def test_energy_is_state_dependent(self, natural):
        layout = mf.build_layout([mf.abstract_mode(1.0), mf.abstract_mode(2.0)], 3)
        low = mf.superposition(layout, {(0, 0): 1.0})
        high = mf.superposition(layout, {(1, 0): 1.0})
        e_low = mf.vacuum_subspace_check(low, natural).field_energy
        e_high = mf.vacuum_subspace_check(high, natural).field_energy
        assert e_low == pytest.approx(0.5, abs=1e-12)
        assert e_high == pytest.approx(1.0, abs=1e-12)
        assert e_low != e_high

    def test_atom_layout_supported(self, natural):
        layout = mf.build_layout([z_mode(1.0)], 2, with_atom=True)
        psi = excited_state(layout, {(0, 0): 1.0})
        check = mf.vacuum_subspace_check(psi, natural)
        assert check and check.field_energy == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("with_atom", [False, True])
    @pytest.mark.parametrize("photons", [0.0, 1e-15, 0.3])
    def test_matches_amplitude_loop(self, rng, with_atom, photons):
        config = mf.FieldConfig(hbar=0.7)
        layout = mf.build_layout([mf.abstract_mode(w) for w in (0.5, 1.3, 2.0, 3.1)], 3,
                                 with_atom=with_atom)
        amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
        for i in range(layout.dimension):
            if divmod(i, layout.fock_dim)[1] > 0:
                amps[i] *= photons
        psi = mf.StateVector(layout, amps)
        # reference: the flat-index loop over (k, n, atom)
        worst, energy = 0.0, 0.0
        for i, amp in enumerate(psi.amplitudes):
            rest, n = divmod(i, layout.fock_dim)
            k = rest // layout.levels
            if n > 0:
                worst = max(worst, abs(amp))
            else:
                energy += 0.5 * config.hbar * layout.modes[k].omega * abs(amp) ** 2
        check = mf.vacuum_subspace_check(psi, config)
        assert check.is_vacuum == (worst < 1e-14)
        assert check.max_excited_component == worst
        # only the summation order changed
        assert check.field_energy == pytest.approx(energy, rel=1e-14)


class TestSingleModeEquivalence:
    def test_matches_jc_oracle_over_ten_rabi_periods(self, natural):
        mode = z_mode(1.0)
        layout = mf.build_layout([mode], 3, with_atom=True)
        e = mf.polarization(mode.kappa, mode.s)
        atom = mf.AtomParams(omega0=1.0, d=0.05, u=tuple(np.conj(e)))
        g = mf.coupling(mode, atom, natural)
        lam = mf.jc_rabi_half_frequency(atom, g)
        h = mf.atom_field_hamiltonian(layout, atom, natural)
        psi0 = excited_state(layout, {(0, 0): 1.0})
        for t in np.linspace(0.0, 10.0 / lam, 60):
            psi = mf.evolve(h, psi0, float(t), natural.hbar)
            excited_pop = float(np.sum(np.abs(
                layout.view(psi.amplitudes)[EXCITED]) ** 2))
            oracle = mf.jc_excited_population(atom, g, 0, float(t))
            assert abs(excited_pop - oracle) < 1e-10


class TestSigmaConventions:
    def test_sigma_plus_raises_ground(self):
        layout = mf.build_layout([z_mode(1.0)], 1, with_atom=True)
        ground = mf.basis_state(layout, 0, 0, atom_level=GROUND)
        raised = mf.StateVector(layout, sigma_plus(layout).matvec(ground.amplitudes))
        assert raised.amplitude(0, 0, EXCITED) == 1.0
        assert mf.expect(sigma3(layout), raised).real == 1.0

