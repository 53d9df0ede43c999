import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import monofield as mf
from monofield.algebra import (fock_lowering, hamiltonian_from_mode_ladders, interior_indices,
                               momentum_from_mode_ladders)
from monofield.cli import _box_modes, load_config, main
from monofield import fields as fields_module
from monofield.fields import (TOL_ENERGY, TOL_SAMPLE, FieldIdentityReport, StateError,
                              _field_blocks, _mode_weights, _poisson_tail, polarization_vectors)

DATA = Path(__file__).parent / "data"


def unit_sphere_draws(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestPolarization:
    def test_z_axis_convention(self):
        e = mf.polarization((0.0, 0.0, 1.0), +1)
        assert np.allclose(e, np.array([1.0, 1.0j, 0.0]) / np.sqrt(2), atol=1e-15)

    def test_minus_z_axis_convention(self):
        e = mf.polarization((0.0, 0.0, -2.0), +1)
        assert np.allclose(e, np.array([1.0, -1.0j, 0.0]) / np.sqrt(2), atol=1e-15)

    def test_self_orthogonality_closed_form(self):
        for kappa in [(0, 0, 1), (1, 2, 3), (-1, 0.5, 0)]:
            for s in (+1, -1):
                e = mf.polarization(kappa, s)
                assert abs(np.dot(e, e)) < 1e-15

    def test_invariants_over_random_directions(self):
        rng = np.random.default_rng(7)
        for n_hat in unit_sphere_draws(rng, 1000):
            kappa = n_hat * rng.uniform(0.1, 5.0)
            basis = mf.polarization_basis(kappa)
            for s in (+1, -1):
                e = basis.vector(s)
                assert abs(np.dot(e, n_hat)) < 1e-13          # transversality
                assert abs(np.dot(e, e)) < 1e-13              # self-orthogonal
                assert abs(np.dot(e, e.conj()) - 1) < 1e-13   # unit norm
                helicity = np.cross(n_hat, e) + 1j * s * e
                assert np.max(np.abs(helicity)) < 1e-13       # n x e = -i s e
            cross = np.dot(basis.vector(+1), np.conj(basis.vector(-1)))
            assert abs(cross) < 1e-13

    def test_zero_wavevector_rejected(self):
        with pytest.raises(ValueError, match="zero wavevector"):
            mf.polarization((0.0, 0.0, 0.0), +1)

    def test_cached_table_of_a_negative_zero_twin(self):
        # equal mode tuples whose wavevectors differ only in the sign of a zero
        mate = (mf.mode(+1, (0.0, 1.0, 1.0)),)
        twin = (mf.mode(+1, (-0.0, 1.0, 1.0)),)
        assert mate == twin and hash(mate) == hash(twin)
        polarization_vectors.cache_clear()
        mate_table = polarization_vectors(mate).tobytes()
        twin_table = polarization_vectors(twin).tobytes()
        polarization_vectors.cache_clear()
        fresh = polarization_vectors(twin).tobytes()
        assert twin_table == fresh  # bit for bit, sign bits of zeros included
        assert mate_table != fresh
        assert polarization_vectors(mate).tobytes() == mate_table

    def test_cached_table_of_a_positive_zero_mate(self):
        # the twin's table is cached first: its mate still gets its own
        mate = (mf.mode(+1, (0.0, 1.0, 1.0)),)
        twin = (mf.mode(+1, (-0.0, 1.0, 1.0)),)
        polarization_vectors.cache_clear()
        twin_table = polarization_vectors(twin).tobytes()
        mate_table = polarization_vectors(mate).tobytes()
        polarization_vectors.cache_clear()
        assert polarization_vectors(mate).tobytes() == mate_table != twin_table
        assert polarization_vectors(twin).tobytes() == twin_table

    def test_a_freshly_parsed_equal_mode_tuple_is_a_cache_hit(self):
        first = load_config(DATA / "config_field.json")[0].modes
        table = polarization_vectors(first)
        hits = fields_module._polarization_table.cache_info().hits
        again = load_config(DATA / "config_field.json")[0].modes
        assert again == first and again is not first
        assert polarization_vectors(again) is table
        assert fields_module._polarization_table.cache_info().hits == hits + 1

    def test_mode_label_keeps_no_sign_cache(self):
        assert not hasattr(mf.mode(+1, (-0.0, 1.0, 1.0)), "kappa_signs")

    def test_negative_zero_twin_is_still_a_duplicate_mode(self):
        with pytest.raises(ValueError, match="duplicate mode in mode set"):
            mf.build_layout([mf.mode(+1, (0.0, 1.0, 1.0)), mf.mode(+1, (-0.0, 1.0, 1.0))], 1)


class TestFieldOperators:
    def test_single_mode_electric_matches_hand_matrix(self, natural):
        layout = mf.build_layout([mf.mode(+1, (0.0, 0.0, 1.0))], 1)
        ex, ey, ez = mf.electric_field(layout, natural, 0.0, (0, 0, 0))
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        # w = i*sqrt(omega/2V)*e with e = (1, i, 0)/sqrt(2), omega = V = 1
        wx, wy = 0.5j, -0.5
        assert np.allclose(ex.toarray(), wx * a + np.conj(wx) * a.conj().T, atol=1e-15)
        assert np.allclose(ey.toarray(), wy * a + np.conj(wy) * a.conj().T, atol=1e-15)
        assert np.max(np.abs(ez.toarray())) == 0.0

    def test_all_components_hermitian(self, mixed_modes, natural):
        layout = mf.build_layout(mixed_modes, 3)
        for builder in (mf.vector_potential, mf.electric_field, mf.magnetic_field):
            for op in builder(layout, natural, 0.37, (0.2, -0.1, 0.5)):
                dense = op.toarray()
                assert np.max(np.abs(dense - dense.conj().T)) < 1e-13

    def test_electric_is_minus_time_derivative_of_potential(self, mixed_modes, natural):
        layout = mf.build_layout(mixed_modes, 2)
        t, x, h = 0.4, (0.1, 0.0, -0.3), 1e-4
        plus = mf.vector_potential(layout, natural, t + h, x)
        minus = mf.vector_potential(layout, natural, t - h, x)
        e_ops = mf.electric_field(layout, natural, t, x)
        for ap, am, e in zip(plus, minus, e_ops):
            deriv = (ap.toarray() - am.toarray()) / (2 * h)
            assert np.max(np.abs(deriv + e.toarray())) < 1e-7

    def test_translation_covariance_against_expm_oracle(self, mixed_modes, natural):
        layout = mf.build_layout(mixed_modes, 2)
        h = mf.hamiltonian(layout, natural)
        p_ops = mf.momentum(layout, natural)
        points = [(0.7, (0.1, 0.2, 0.3)), (1.3, (0.0, -0.4, 0.2)), (0.2, (1.0, 0.0, 0.0))]
        for builder in (mf.vector_potential, mf.electric_field, mf.magnetic_field):
            ref = builder(layout, natural, 0.0, (0.0, 0.0, 0.0))
            for t, x in points:
                # generator (H*t - P.x)/hbar; conjugation moves fields to (t, x)
                gen = t * h.toarray()
                for xi, p in zip(x, p_ops):
                    gen = gen - xi * p.toarray()
                u = scipy.linalg.expm(1j * gen)
                moved = builder(layout, natural, t, x)
                for f0, ftx in zip(ref, moved):
                    conj = u @ f0.toarray() @ u.conj().T
                    assert np.max(np.abs(conj - ftx.toarray())) < 1e-9

    def test_abstract_modes_rejected(self, natural, two_tone_layout):
        with pytest.raises(ValueError, match="abstract"):
            mf.electric_field(two_tone_layout, natural, 0.0, (0, 0, 0))


class TestCoherentState:
    def two_mode_spec(self, alphas=(0.3, 0.4j)):
        modes = (mf.mode(+1, (0.0, 0.0, 1.0)), mf.mode(-1, (0.0, 2.0, 0.0)))
        return mf.CoherentBatch.make(modes, [[1.0, 1.0]], [list(alphas)])

    def test_vacuum_spec_energy(self, natural):
        spec = self.two_mode_spec(alphas=(0.0, 0.0))
        layout = mf.build_layout(spec.modes, 4)
        state = mf.coherent_state(layout, spec)
        h = mf.hamiltonian(layout, natural)
        # (1/2) sum |Phi|^2 omega = (1/2)(0.5*1 + 0.5*2)
        assert mf.expect(h, state).real == pytest.approx(0.75, abs=1e-12)

    def test_eigenrelation_of_truncated_block(self, natural):
        mode = mf.mode(+1, (0.0, 0.0, 1.0))
        layout = mf.build_layout([mode], 30)
        spec = mf.CoherentBatch.make([mode], [[1.0]], [[0.5]])
        state = mf.coherent_state(layout, spec)
        a = mf.mode_annihilator(layout, 0)
        residual = a.matvec(state.amplitudes) - 0.5 * state.amplitudes
        assert np.linalg.norm(residual) < 1e-10

    def test_energy_expectation_formula(self, natural):
        spec = self.two_mode_spec()
        layout = mf.build_layout(spec.modes, 30)
        state = mf.coherent_state(layout, spec)
        h = mf.hamiltonian(layout, natural)
        expected = sum(m.omega * abs(w) ** 2 * (abs(al) ** 2 + 0.5)
                       for m, w, al in zip(spec.modes, spec.weights[0], spec.alphas[0]))
        assert mf.expect(h, state).real == pytest.approx(expected, abs=1e-10)

    def test_momentum_expectation_formula(self, natural):
        spec = self.two_mode_spec()
        layout = mf.build_layout(spec.modes, 30)
        state = mf.coherent_state(layout, spec)
        for i, p in enumerate(mf.momentum(layout, natural)):
            expected = sum(m.kappa[i] * abs(w) ** 2 * (abs(al) ** 2 + 0.5)
                           for m, w, al in zip(spec.modes, spec.weights[0], spec.alphas[0]))
            assert mf.expect(p, state).real == pytest.approx(expected, abs=1e-10)

    def test_truncation_too_small_reports_required_nmax(self):
        mode = mf.mode(+1, (0.0, 0.0, 1.0))
        layout = mf.build_layout([mode], 5)
        spec = mf.CoherentBatch.make([mode], [[1.0]], [[3.0]])
        with pytest.raises(ValueError, match="nmax >= "):
            mf.coherent_state(layout, spec)
        need = mf.required_truncation(3.0)
        assert _poisson_tail(9.0, need) < 1e-10
        assert _poisson_tail(9.0, need - 1) >= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.5, 3.0, 2.0 + 5.0j, 20.0])
    @pytest.mark.parametrize("tail_tol", [1e-3, 1e-10, 1e-15])
    def test_required_truncation_matches_per_n_sum(self, alpha, tail_tol):
        mu = abs(alpha) ** 2

        def tail(n):  # the whole series re-summed for each candidate n
            if mu == 0.0:
                return 0.0
            log_terms = [-mu + i * math.log(mu) - math.lgamma(i + 1) for i in range(n + 1)]
            return max(0.0, 1.0 - sum(math.exp(v) for v in log_terms))

        cap = 700
        need = next((n for n in range(cap + 1) if tail(n) < tail_tol), None)
        if need is None:  # the running sum stalls above 1 - tail_tol
            with pytest.raises(ValueError, match="no truncation below 700"):
                mf.required_truncation(alpha, tail_tol, cap)
            need = cap
        else:
            assert mf.required_truncation(alpha, tail_tol, cap) == need
        for n in (0, need - 1, need, need + 3):
            if n >= 0:
                assert _poisson_tail(mu, n) == tail(n)

    def test_weights_normalized(self):
        spec = self.two_mode_spec()
        assert sum(abs(w) ** 2 for w in spec.weights[0]) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("weights", [[1e-160, 1e-160], [1e-165, 1e-165], [1e-200, 0.0],
                                         [5e-324, 1e-320j]])
    def test_weights_whose_squares_underflow_are_normalized(self, weights):
        spec = self.two_mode_spec()
        w = mf.CoherentBatch.make(spec.modes, [weights], [[0.0, 0.0]]).weights[0]
        assert abs(np.linalg.norm(w) - 1.0) < 1e-15
        ratio = weights[1] / weights[0]
        assert w[1] / w[0] == pytest.approx(ratio, rel=1e-15)

    def test_ordinary_weights_keep_the_plain_norm_bit_for_bit(self, rng):
        modes = self.two_mode_spec().modes
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            w = scale * (rng.normal(size=2) + 1j * rng.normal(size=2))
            want = w / np.linalg.norm(w)
            assert mf.CoherentBatch.make(modes, [w], [[0, 0]]).weights[0].tobytes() \
                == want.tobytes()

    @pytest.mark.parametrize("weights, message", [
        ([0.0, 0.0], "all sector weights are zero"),
        ([0j, -0.0], "all sector weights are zero"),
        ([np.inf, 1.0], "the sector weights are not finite"),
        ([np.nan, 0.0], "the sector weights are not finite"),
    ])
    def test_zero_and_overflowing_weights_refused(self, weights, message):
        modes = self.two_mode_spec().modes
        with pytest.raises(mf.fields.StateError, match=f"^{message}$") as exc:
            mf.CoherentBatch.make(modes, [[1.0, 1.0], weights, [0.0, 0.0]], [[0.0, 0.0]] * 3)
        assert exc.value.index == 1

    def test_spec_loadable_from_json(self, tmp_path):
        import json

        doc = {
            "modes": [{"s": 1, "kappa": [0.0, 0.0, 1.0]},
                      {"s": -1, "kappa": [0.0, 2.0, 0.0]}],
            "weights": [1.0, [0.0, 1.0]],
            "alphas": [0.3, [0.0, 0.4]],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        doc = json.loads(path.read_text())
        modes = mf.load_mode_set(doc.pop("modes"))
        state, _ = mf.fields.read_states(modes, [doc], "coherent", labelled=False)
        assert state.alphas[0].tolist() == [0.3 + 0j, 0.4j]
        assert abs(state.weights[0, 1] / state.weights[0, 0] - 1j) < 1e-14
        with pytest.raises(ValueError, match=r"^unknown keys in coherent: \['phases'\]$"):
            mf.fields.read_states(modes, [{"weights": [1, 1], "phases": [0, 0]}], "coherent",
                                  labelled=False)

    @pytest.mark.parametrize("weights, plain", [
        ([1e200, 1e200], [1, 1]),
        ([1.5e308, -1.5e308], [1, -1]),
        ([1e308j, 1e308 + 1e308j], [1j, 1 + 1j]),
        ([1e300, 1.0], [1, 1e-300]),
    ])
    def test_weights_whose_squares_overflow_are_normalized(self, weights, plain):
        # divided by their largest part first, so a real or imaginary row
        # gives the bits of the same row at unit scale
        modes = self.two_mode_spec().modes
        got = mf.CoherentBatch.make(modes, [weights], [[0, 0]]).weights
        want = mf.CoherentBatch.make(modes, [plain], [[0, 0]]).weights
        assert got.tobytes() == want.tobytes()


class TestFieldAverages:
    def test_vacuum_averages_identically_zero(self, natural):
        modes = (mf.mode(+1, (0.0, 0.0, 1.0)), mf.mode(-1, (1.0, 0.0, 0.0)))
        spec = mf.CoherentBatch.make(modes, [[1.0, 1.0]], [[0.0, 0.0]])
        layout = mf.build_layout(modes, 3)
        state = mf.coherent_state(layout, spec)
        for builder in (mf.vector_potential, mf.electric_field, mf.magnetic_field):
            avg = mf.field_average(builder, state, natural, 0.8, (0.1, 0.2, 0.3))
            assert np.all(avg == 0.0)
        for formula in mf.classical_formula(spec, natural, 0.8, (0.1, 0.2, 0.3)):
            assert np.all(formula == 0.0)

    def test_single_mode_hand_value(self, natural):
        mode = mf.mode(+1, (0.0, 0.0, 2.0))
        alpha = 0.2
        spec = mf.CoherentBatch.make([mode], [[1.0]], [[alpha]])
        layout = mf.build_layout([mode], 30)
        state = mf.coherent_state(layout, spec)
        avg = mf.field_average(mf.vector_potential, state, natural, 0.0, (0, 0, 0))
        e = mf.polarization(mode.kappa, mode.s)
        expected = np.sqrt(1.0 / (2.0 * mode.omega)) * alpha * (e + e.conj()).real
        assert np.allclose(avg, expected, atol=1e-12)

    def test_operator_route_matches_classical_oracle(self, natural):
        modes = (mf.mode(+1, (0.0, 0.0, 1.0)), mf.mode(-1, (0.0, 2.0, 0.0)))
        spec = mf.CoherentBatch.make(modes, [[1.0, 1.0j]], [[0.9, 0.35 - 0.2j]])
        layout = mf.build_layout(modes, 30)
        state = mf.coherent_state(layout, spec)
        rng = np.random.default_rng(42)
        builders = (mf.vector_potential, mf.electric_field, mf.magnetic_field)
        for _ in range(20):
            t = rng.uniform(0, 5)
            x = rng.uniform(-2, 2, size=3)
            reference = mf.classical_formula(spec, natural, t, x)
            for builder, ref in zip(builders, reference):
                avg = mf.field_average(builder, state, natural, t, x)
                assert np.max(np.abs(avg - ref)) < 1e-8

    def test_average_electric_is_minus_ddt_average_potential(self, natural):
        modes = (mf.mode(+1, (0.0, 0.0, 1.0)), mf.mode(+1, (0.0, 2.0, 0.0)))
        spec = mf.CoherentBatch.make(modes, [[1.0, 1.0]], [[0.4, 0.7j]])
        layout = mf.build_layout(modes, 30)
        state = mf.coherent_state(layout, spec)
        t, x, h = 0.6, (0.3, 0.0, -0.2), 1e-4
        a_plus = mf.field_average(mf.vector_potential, state, natural, t + h, x)
        a_minus = mf.field_average(mf.vector_potential, state, natural, t - h, x)
        e_avg = mf.field_average(mf.electric_field, state, natural, t, x)
        assert np.max(np.abs((a_plus - a_minus) / (2 * h) + e_avg)) < 1e-7


def loop_weights(layout, config, t, x, kind):
    """The field weights as one scalar product per mode, the form the
    vectorised weights must reproduce bit for bit."""
    xv = np.asarray(x, dtype=float)
    weights = np.zeros((layout.n_modes, 3), dtype=complex)
    for k, m in enumerate(layout.modes):
        basis = mf.polarization_basis(m.kappa)
        e = basis.vector(m.s)
        phase = np.exp(-1j * m.omega * t + 1j * np.dot(m.kappa, xv))
        if kind == "A":
            weights[k] = math.sqrt(config.hbar / (2.0 * m.omega * config.volume)) * phase * e
        elif kind == "E":
            weights[k] = 1j * math.sqrt(config.hbar * m.omega / (2.0 * config.volume)) * phase * e
        else:
            ne = np.cross(np.array(basis.n_hat), e)
            weights[k] = 1j * math.sqrt(config.hbar * m.omega / (2.0 * config.volume)) * phase * ne
    return weights


def assert_bitwise(got, want):
    """Equal entry for entry, signed zeros included."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def random_modes(rng, count):
    """Propagating modes with wavevectors of mixed scales, some along the axes
    (the fixed-frame polarizations) and some with zero components."""
    kappas = rng.normal(size=(count, 3)) * rng.choice([0.01, 1.0, 30.0], size=(count, 1))
    kappas[rng.uniform(size=kappas.shape) < 0.2] = 0.0
    kappas[:4] = [[0.0, 0.0, 1.5], [0.0, 0.0, -0.5], [2.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
    kappas[~kappas.any(axis=1)] = [0.3, -0.2, 0.0]
    return [mf.mode(int(s), k, j=i)
            for i, (s, k) in enumerate(zip(rng.choice([-1, 1], size=count), kappas))]


def random_grid(rng, count):
    """``count`` times (negative ones included) and points, of mixed scales."""
    t = rng.normal(size=count) * rng.choice([1e-3, 1.0, 50.0], size=count)
    t[0] = 0.0
    x = rng.normal(size=(count, 3)) * rng.choice([1e-3, 1.0, 50.0], size=(count, 1))
    x[1] = 0.0
    return t, x


def random_coherent(rng, layout, scale=0.05):
    count = layout.n_modes
    spec = mf.CoherentBatch.make(layout.modes,
                                 [rng.normal(size=count) + 1j * rng.normal(size=count)],
                                 [scale * (rng.normal(size=count) + 1j * rng.normal(size=count))])
    return mf.coherent_state(layout, spec)


def loop_averages(state, config, t, x):
    """The (P, 3, 3) averages of A, E, B from one field_average per point and field."""
    builders = (mf.vector_potential, mf.electric_field, mf.magnetic_field)
    return np.array([[mf.field_average(b, state, config, tp, xp) for b in builders]
                     for tp, xp in zip(t.tolist(), x.tolist())])


class TestFieldGrid:
    """The vectorised weights and the batched grid averages against the
    per-mode and per-point forms, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mode_weights_equal_the_per_mode_loop(self, seed):
        rng = np.random.default_rng([seed, 18])
        layout = mf.build_layout(random_modes(rng, 40), 2)
        config = mf.FieldConfig(hbar=float(rng.uniform(0.1, 3.0)),
                                volume=float(rng.uniform(0.1, 30.0)))
        for t, x in zip(*random_grid(rng, 12)):
            for kind in "AEB":
                assert_bitwise(_mode_weights(layout, config, float(t), x, kind),
                               loop_weights(layout, config, float(t), x, kind))

    def test_mode_weights_equal_the_loop_on_random_boxes(self):
        rng = np.random.default_rng(181)
        for _ in range(3):
            modes, volume = _box_modes({"edge": float(rng.uniform(0.5, 4.0)), "max_index": 1},
                                       float(rng.uniform(0.5, 2.0)))
            layout = mf.build_layout(modes, 2)
            config = mf.FieldConfig(hbar=float(rng.uniform(0.1, 3.0)), volume=volume)
            for t, x in zip(*random_grid(rng, 4)):
                for kind in "AEB":
                    assert_bitwise(_mode_weights(layout, config, float(t), x, kind),
                                   loop_weights(layout, config, float(t), x, kind))

    @pytest.mark.parametrize("with_atom", [False, True])
    def test_field_blocks_equal_the_plain_products(self, with_atom):
        """Every entry of a component block is w a + conj(w) a^dag as the plain
        broadcast product gives it, the signed zeros off the bands included."""
        rng = np.random.default_rng(185)
        layout = mf.build_layout(random_modes(rng, 6), 4, with_atom=with_atom)
        parts = rng.normal(size=(3, 6, 2))
        parts[rng.uniform(size=parts.shape) < 0.3] = 0.0
        parts[rng.uniform(size=parts.shape) < 0.3] = -0.0
        w = parts.view(complex)[..., 0]
        a, col = fock_lowering(layout.nmax), w[..., None, None]
        want = layout.on_each_level(col * a + np.conj(col) * a.conj().T)
        assert_bitwise(_field_blocks(layout, w), want)

    @pytest.mark.parametrize("seed", range(3))
    def test_grid_averages_equal_the_per_point_loop(self, seed):
        rng = np.random.default_rng([seed, 180])
        layout = mf.build_layout(random_modes(rng, 12), 6)
        config = mf.FieldConfig(hbar=float(rng.uniform(0.5, 2.0)),
                                volume=float(rng.uniform(0.5, 5.0)))
        state = random_coherent(rng, layout)
        t, x = random_grid(rng, 9)
        assert_bitwise(mf.field_averages(state, config, t, x), loop_averages(state, config, t, x))
        # the vacuum's averages are zeros of either sign
        vacuum = mf.coherent_state(layout, mf.CoherentBatch.make(
            layout.modes, [rng.normal(size=layout.n_modes)], [np.zeros(layout.n_modes)]))
        assert_bitwise(mf.field_averages(vacuum, config, t, x),
                       loop_averages(vacuum, config, t, x))
        # with the atom, blocks of 2(nmax+1) kets
        layout = mf.build_layout(layout.modes, 3, with_atom=True)
        state = mf.StateVector(layout, rng.normal(size=(layout.dimension, 2)).view(complex)[:, 0])
        assert_bitwise(mf.field_averages(state, config, t, x), loop_averages(state, config, t, x))

    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_field_sweep_over_chunks_equals_the_per_point_loop(self, tmp_path, monkeypatch,
                                                               block_bytes):
        """field-sweep on the 52-mode box at nmax 5: 5 times x 4 points, in
        chunks of 8 points (and of one), every average as the loop gives it;
        the chunks are counted by the weight tables built."""
        rng = np.random.default_rng(182)
        doc = {"box": {"edge": 2.3, "max_index": 1}, "nmax": 5,
               "coherent": {"weights": rng.normal(size=52).tolist(),
                            "alphas": (0.05 * rng.normal(size=52)).tolist()},
               "times": [-1.3, 0.0, 0.4, 2.5, 17.0],
               "points": [[0.0, 0.0, 0.0], [0.1, -0.7, 2.2], [3.0, 1e-3, -0.4], [-5.0, 2.0, 0.3]]}
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(doc))
        if block_bytes is not None:
            monkeypatch.setattr("monofield.fields.STATE_BLOCK_BYTES", block_bytes)
        chunks = []
        grid_weights = fields_module._grid_weights
        monkeypatch.setattr(fields_module, "_grid_weights",
                            lambda *args: chunks.append(len(args[2])) or grid_weights(*args))
        assert main(["field-sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert chunks == ([8, 8, 4] if block_bytes is None else [1] * 20)
        with open(tmp_path / "field_sweep.csv", encoding="utf-8") as fh:
            rows = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
        assert len(rows) == 20
        modes, volume = _box_modes(doc["box"], 1.0)
        layout = mf.build_layout(modes, 5)
        state = mf.coherent_state(layout, mf.CoherentBatch.make(
            modes, [doc["coherent"]["weights"]], [doc["coherent"]["alphas"]]))
        want = loop_averages(state, mf.FieldConfig(volume=volume), rows[:, 0], rows[:, 1:4])
        assert_bitwise(rows[:, 4:], want.reshape(20, 9))

    def test_one_point_on_the_large_box(self):
        modes, volume = _box_modes({"edge": 2.0, "max_index": 2}, 1.0)
        layout = mf.build_layout(modes, 8)
        assert layout.n_modes == 248
        rng = np.random.default_rng(183)
        state = random_coherent(rng, layout)
        t, x = np.array([-0.7]), np.array([[0.3, -0.2, 0.5]])
        config = mf.FieldConfig(volume=volume)
        assert_bitwise(mf.field_averages(state, config, t, x), loop_averages(state, config, t, x))

    def test_refusals_keep_their_messages(self, natural, two_tone_layout, mixed_modes):
        layout = mf.build_layout(mixed_modes, 6)
        state = random_coherent(np.random.default_rng(184), layout)
        finite = "field operators need finite t and a finite 3-vector x"
        for t, x in [(math.nan, (0.0, 0.0, 0.0)), (math.inf, (0.0, 0.0, 0.0)),
                     (0.0, (0.0, math.nan, 0.0)), (0.0, (0.0, 0.0, -math.inf)),
                     (0.0, (0.0, 0.0))]:
            with pytest.raises(ValueError) as exc:
                mf.electric_field(layout, natural, t, x)
            assert str(exc.value) == finite
            points = [(0.0, 0.0, 0.0), x] if len(x) == 3 else [x, x]
            with pytest.raises(ValueError) as exc:
                mf.field_averages(state, natural, [0.0, t], points)
            assert str(exc.value) == finite
        modes = (*mixed_modes[:2], mf.abstract_mode(1.0), mf.abstract_mode(2.0))
        with pytest.raises(ValueError) as exc:
            mf.magnetic_field(mf.build_layout(modes, 2), natural, 0.0, (0.0, 0.0, 0.0))
        assert str(exc.value) == \
            f"field operators require propagating modes; {modes[2]} is abstract"
        # finite t and x are checked before the modes
        with pytest.raises(ValueError) as exc:
            mf.vector_potential(two_tone_layout, natural, math.nan, (0.0, 0.0, 0.0))
        assert str(exc.value) == finite


    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_refused_without_warnings(self):
        """A time or point whose phase omega*t - kappa.x leaves the float range
        is refused with ValueError before any arithmetic warns (it gave
        [nan nan nan] and two RuntimeWarnings); a large phase that stays
        finite is still evaluated."""
        cfg, _ = load_config(DATA / "config_field.json")
        layout = mf.build_layout(cfg.modes, cfg.nmax)
        state = mf.coherent_state(layout, cfg.coherent)
        phase = "the phase omega*t - kappa.x of a mode is out of the float range"
        for t, x in [(1e308, (0.0, 0.0, 0.0)), (-1e308, (0.0, 0.0, 0.0)),
                     (0.0, (0.0, 1e308, 0.0)), (1e308, (1e308, 1e308, 1e308))]:
            with pytest.raises(ValueError) as exc:
                mf.field_averages(state, cfg.field, [0.0, t], [(0.0, 0.0, 0.0), x])
            assert str(exc.value) == phase
            with pytest.raises(ValueError) as exc:
                mf.electric_field(layout, cfg.field, t, x)
            assert str(exc.value) == phase
        assert np.isfinite(mf.field_averages(state, cfg.field, [1e300], [(0.0, 0.0, 0.0)])).all()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_named_by_its_index_in_the_whole_grid(self):
        """On the 52-mode box at nmax 5 field_averages takes chunks of 8
        points; the first point whose phase overflows, in the second or
        third chunk, is refused by its position in the whole grid."""
        modes, volume = _box_modes({"edge": 2.0, "max_index": 1}, 1.0)
        layout = mf.build_layout(modes, 5)
        state = random_coherent(np.random.default_rng(185), layout)
        t, x = random_grid(np.random.default_rng(186), 20)
        phase = "the phase omega*t - kappa.x of a mode is out of the float range"
        for first, later in [(9, 13), (16, 19), (8, 8)]:
            bad_t, bad_x = t.copy(), x.copy()
            bad_t[first] = 1e308
            bad_x[later] = (0.0, -1e308, 1e308)
            with pytest.raises(StateError) as exc:
                mf.field_averages(state, mf.FieldConfig(volume=volume), bad_t, bad_x)
            assert (exc.value.index, str(exc.value)) == (first, phase)

    def test_misshapen_grid_refused_before_any_chunk(self):
        """A point array longer than the times is refused, also where every
        chunk of the times would find its points."""
        layout = mf.build_layout(_box_modes({"edge": 2.0, "max_index": 1}, 1.0)[0], 5)
        state = random_coherent(np.random.default_rng(187), layout)
        t, x = random_grid(np.random.default_rng(188), 20)
        with pytest.raises(ValueError, match="finite t and a finite 3-vector x"):
            mf.field_averages(state, mf.FieldConfig(), t[:12], x)


class TestEnergyMomentumIdentity:
    def samples(self, count=5, seed=11):
        rng = np.random.default_rng(seed)
        return [(float(rng.uniform(0, 3)), tuple(rng.uniform(-1, 1, size=3)))
                for _ in range(count)]

    def test_identities_on_mixed_modes(self, mixed_modes, natural):
        layout = mf.build_layout(mixed_modes, 4)
        report = mf.energy_identity(layout, natural, self.samples())
        assert report.energy_dev < 1e-10
        assert report.integrand_sample_dev < 1e-12
        # E.E and B.B are separately (t, x)-independent: no E/B cancellation
        assert report.e2_sample_dev < 1e-12
        assert report.b2_sample_dev < 1e-12
        assert min(report.momentum_dev_literal, report.momentum_dev_symmetrized) < 1e-10
        assert report.passed

    def test_orderings_coincide(self, mixed_modes, natural):
        layout = mf.build_layout(mixed_modes, 3)
        report = mf.energy_identity(layout, natural, self.samples(3))
        assert abs(report.momentum_dev_literal - report.momentum_dev_symmetrized) < 1e-13
        assert "symmetrized" in report.ordering_winner

    def test_single_mode_diagonal_energy(self, natural):
        layout = mf.build_layout([mf.mode(+1, (0.0, 0.0, 1.5))], 3)
        e_ops = mf.electric_field(layout, natural, 0.3, (0.1, 0.2, 0.0))
        b_ops = mf.magnetic_field(layout, natural, 0.3, (0.1, 0.2, 0.0))
        total = np.zeros((layout.dimension,) * 2, dtype=complex)
        for op in (*e_ops, *b_ops):
            total += op.toarray() @ op.toarray()
        half_v = 0.5 * natural.volume * total
        omega = 1.5
        idx = interior_indices(layout)
        diag = np.diagonal(half_v).real
        # hbar*omega*(n + 1/2) on the interior, the truncated value at the rung
        assert np.allclose(diag[idx], [omega * (n + 0.5) for n in range(3)], atol=1e-12)
        assert diag[layout.nmax] == pytest.approx(omega * layout.nmax / 2, abs=1e-12)
        off = half_v - np.diag(np.diagonal(half_v))
        assert np.max(np.abs(off)) < 1e-12

    def test_requires_samples(self, mixed_modes, natural):
        layout = mf.build_layout(mixed_modes, 2)
        with pytest.raises(ValueError, match="sample"):
            mf.energy_identity(layout, natural, [])


def dot_square(ops):
    return ops[0] @ ops[0] + ops[1] @ ops[1] + ops[2] @ ops[2]


def cross(a, b):
    return [a[1] @ b[2] - a[2] @ b[1],
            a[2] @ b[0] - a[0] @ b[2],
            a[0] @ b[1] - a[1] @ b[0]]


def loop_identity(layout, config, samples):
    """The identity report from one (M, b, b) block product at a time: E and
    B from the builders at each sample, and the mode-ladder H and P
    diagonals written out as diagonal blocks.  The stacked energy_identity
    must return it field by field."""
    h_ref = hamiltonian_from_mode_ladders(layout, config).as_blocks()
    p_ref = [p.as_blocks() for p in momentum_from_mode_ladders(layout, config)]
    e2_list, b2_list, literal_list, sym_list = [], [], [], []
    for t, x in samples:
        e_ops = [op.data for op in mf.electric_field(layout, config, t, x)]
        b_ops = [op.data for op in mf.magnetic_field(layout, config, t, x)]
        e2_list.append(dot_square(e_ops))
        b2_list.append(dot_square(b_ops))
        exb = cross(e_ops, b_ops)
        literal_list.append(exb)
        sym_list.append([0.5 * (f - g) for f, g in zip(exb, cross(b_ops, e_ops))])

    def largest(blocks):
        return float(np.max(np.abs(blocks)))

    def pairwise(stacks):
        return max([largest(s - stacks[0]) for s in stacks[1:]], default=0.0)

    def momentum_dev(cross_list):
        return max(largest(config.volume * comps[i] - p_ref[i])
                   for comps in cross_list for i in range(3))

    lit, sym = momentum_dev(literal_list), momentum_dev(sym_list)
    if abs(lit - sym) < 1e-15:
        winner = "tie (orderings coincide); symmetrized exported"
    else:
        winner = "literal" if lit < sym else "symmetrized"
    return FieldIdentityReport(
        n_samples=len(samples),
        e2_sample_dev=pairwise(e2_list),
        b2_sample_dev=pairwise(b2_list),
        integrand_sample_dev=pairwise([e2 + b2 for e2, b2 in zip(e2_list, b2_list)]),
        energy_dev=max(largest(0.5 * config.volume * (e2 + b2) - h_ref)
                       for e2, b2 in zip(e2_list, b2_list)),
        momentum_dev_literal=lit,
        momentum_dev_symmetrized=sym,
        ordering_winner=winner,
        tol_energy=TOL_ENERGY,
        tol_sample=TOL_SAMPLE,
    )


class TestEnergyIdentityStacks:
    """energy_identity on (P, 3, M, b, b) block stacks against the per-sample
    route of one block product at a time, every report field equal by repr."""

    @staticmethod
    def samples(rng, count):
        t = rng.normal(size=count) * rng.choice([0.1, 1.0, 20.0], size=count)
        x = rng.normal(size=(count, 3)) * rng.choice([0.1, 1.0, 5.0], size=(count, 1))
        return [(tp, tuple(xp)) for tp, xp in zip(t.tolist(), x.tolist())]

    @pytest.mark.parametrize("nmax", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_samples", [1, 2, 4])
    def test_equals_the_per_sample_route(self, n_samples, nmax):
        rng = np.random.default_rng([n_samples, nmax, 19])
        config = mf.FieldConfig(hbar=float(rng.uniform(0.2, 3.0)),
                                volume=float(rng.uniform(0.1, 20.0)))
        layout = mf.build_layout(random_modes(rng, int(rng.integers(4, 12))), nmax)
        samples = self.samples(rng, n_samples)
        assert repr(mf.energy_identity(layout, config, samples)) == \
            repr(loop_identity(layout, config, samples))
        modes, volume = _box_modes({"edge": float(rng.uniform(0.5, 4.0)), "max_index": 1},
                                   float(rng.uniform(0.5, 2.0)))
        config = mf.FieldConfig(hbar=float(rng.uniform(0.2, 3.0)), volume=volume)
        layout = mf.build_layout(modes, nmax)
        samples = self.samples(rng, n_samples)
        assert repr(mf.energy_identity(layout, config, samples)) == \
            repr(loop_identity(layout, config, samples))

    def test_equals_the_per_sample_route_on_the_large_box(self):
        modes, volume = _box_modes({"edge": 2.0, "max_index": 2}, 1.0)
        layout = mf.build_layout(modes, 4)
        config = mf.FieldConfig(volume=volume)
        samples = self.samples(np.random.default_rng(191), 3)
        assert repr(mf.energy_identity(layout, config, samples)) == \
            repr(loop_identity(layout, config, samples))
