"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
failure output) and then asserts, so the suite doubles as a checklist.
"""

import csv
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import monofield as mf
from monofield.algebra import full_commutator_reference, interior_indices
from monofield.cli import load_config, main
from monofield.emission import EXCITED


def report(num, ok, detail):
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def four_mode_layout(nmax):
    modes = [mf.mode(+1, (0.0, 0.0, 1.0)), mf.mode(+1, (0.0, 2.0, 0.0)),
             mf.mode(-1, (3.0, 0.0, 0.0)), mf.mode(-1, (0.0, 0.0, 4.0))]
    return mf.build_layout(modes, nmax)


def test_criterion_1_algebra_suite():
    layout = four_mode_layout(5)
    table = mf.verify_algebra(layout, tol=1e-13)
    cross = ~np.eye(layout.n_modes, dtype=bool)
    cross_ok = bool(np.all(table.deviations[cross] == 0.0))
    # the diagonal commutator is the one checked on the interior subspace
    diag_ok = bool(np.all(np.diagonal(table.deviations[:, :, 0]) < 1e-13))
    boundary_ok = True
    boundary_dev = 0.0
    for k in range(layout.n_modes):
        a_k = mf.mode_annihilator(layout, k)
        comm = (a_k @ a_k.dag()).toarray() - (a_k.dag() @ a_k).toarray()
        ref = full_commutator_reference(layout, k).toarray()
        boundary_ok &= bool(np.array_equal(comm != 0, ref != 0))
        boundary_dev = max(boundary_dev, float(np.max(np.abs(comm - ref))))
    boundary_ok &= boundary_dev < 1e-13
    report(1, cross_ok and diag_ok and boundary_ok,
           f"cross-mode exact zeros: {cross_ok}; interior commutator ok: "
           f"{diag_ok}; boundary -(N+1)|N><N| support exact, value dev "
           f"{boundary_dev:.2e}")


def test_criterion_2_spectrum():
    layout = mf.build_layout([mf.abstract_mode(w) for w in (0.5, 1.0, 2.5)], 4)
    h = mf.hamiltonian(layout)
    expected = sorted(m.omega * (n + 0.5) for m in layout.modes for n in range(5))
    exact = sorted(h.diag().real.tolist()) == expected
    h2 = mf.hamiltonian_from_frequency_operator(layout)
    h5 = mf.hamiltonian_from_mode_ladders(layout)
    construction_dev = float(np.max(np.abs(h2.toarray() - h5.toarray())))
    report(2, exact and construction_dev < 1e-12,
           f"eigenvalues exact: {exact}; tensor-vs-sum construction dev "
           f"{construction_dev:.2e}")


def test_criterion_3_annihilator_phase_formula():
    # the Heisenberg picture U^dag a_k U with U = exp(-iHt) from scipy's Pade
    # exponential of the written-out free Hamiltonian
    layout = four_mode_layout(5)
    h = mf.hamiltonian(layout).toarray()
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        u = scipy.linalg.expm(-1j * t * h)
        for k, m in enumerate(layout.modes):
            a_k = mf.mode_annihilator(layout, k).toarray()
            moved = u.conj().T @ a_k @ u
            ref = np.exp(-1j * m.omega * t) * a_k
            worst = max(worst, float(np.max(np.abs(moved - ref))))
    report(3, worst < 1e-10, f"max deviation over t in (0.1, 1, 10): {worst:.2e}")


def test_criterion_4_finite_state_dependent_vacuum_energy():
    layout = four_mode_layout(5)
    h = mf.hamiltonian(layout)
    omegas = layout.omegas
    rng = np.random.default_rng(0)
    worst = 0.0
    bound_ok = True
    for _ in range(25):
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = mf.superposition(layout, {(k, 0): w[k] for k in range(4)})
        probs = np.abs([state.amplitude(k, 0) for k in range(4)]) ** 2
        energy = mf.expect(h, state).real
        worst = max(worst, abs(energy - 0.5 * float(probs @ omegas)))
        bound_ok &= energy <= 0.5 * omegas.max() + 1e-12
    std = mf.standard_vacuum_energy(mf.build_standard_layout(layout.modes, 3).modes)
    report(4, worst < 1e-12 and bound_ok,
           f"formula dev {worst:.2e}; bounded by half the largest mode energy: "
           f"{bound_ok}; standard-scheme contrast {std}")


def test_criterion_5_field_integral_identities(mixed_modes, natural):
    layout = mf.build_layout(mixed_modes, 4)
    rng = np.random.default_rng(17)
    samples = [(float(rng.uniform(0, 3)), tuple(rng.uniform(-1, 1, size=3)))
               for _ in range(5)]
    result = mf.energy_identity(layout, natural, samples)
    ok = (result.energy_dev < 1e-10
          and result.integrand_sample_dev < 1e-12
          and min(result.momentum_dev_literal, result.momentum_dev_symmetrized) < 1e-10)
    report(5, ok,
           f"energy dev {result.energy_dev:.2e}; integrand (t,x)-dev "
           f"{result.integrand_sample_dev:.2e}; momentum ordering: "
           f"{result.ordering_winner}")


def test_criterion_6_coherent_averages(natural):
    modes = (mf.mode(+1, (0.0, 0.0, 1.0)), mf.mode(-1, (0.0, 2.0, 0.0)))
    spec = mf.CoherentBatch.make(modes, [[1.0, 1.0j]], [[1.0, 0.6 - 0.5j]])
    layout = mf.build_layout(modes, 30)
    state = mf.coherent_state(layout, spec)
    rng = np.random.default_rng(23)
    worst = 0.0
    builders = (mf.vector_potential, mf.electric_field, mf.magnetic_field)
    for _ in range(20):
        t = float(rng.uniform(0, 5))
        x = rng.uniform(-2, 2, size=3)
        for builder, ref in zip(builders, mf.classical_formula(spec, natural, t, x)):
            avg = mf.field_average(builder, state, natural, t, x)
            worst = max(worst, float(np.max(np.abs(avg - ref))))
    vac = mf.coherent_state(layout, mf.CoherentBatch.make(modes, [[1.0, 1.0]], [[0.0, 0.0]]))
    vac_zero = all(
        np.all(mf.field_average(b, vac, natural, 0.3, (0.1, 0.2, 0.3)) == 0.0)
        for b in builders)
    report(6, worst < 1e-8 and vac_zero,
           f"operator-vs-classical dev {worst:.2e} over 20 points; vacuum "
           f"averages identically zero: {vac_zero}")


def test_criterion_7_first_order_emission(natural):
    modes = [mf.mode(+1, (0.0, 0.0, 0.8)), mf.mode(+1, (0.0, 1.0, 0.0)),
             mf.mode(-1, (1.3, 0.0, 0.0))]
    layout = mf.build_layout(modes, 4, with_atom=True)
    atom = mf.AtomParams.make(1.0, 0.01, (1.0, 0.3j, 0.0))
    amps = np.zeros(layout.dimension, dtype=complex)
    amps[layout.flatten(0, 0, EXCITED)] = 0.6
    amps[layout.flatten(1, 1, EXCITED)] = 0.8
    initial = mf.StateVector(layout, amps).normalize()
    t = 1.2

    gs = mf.mode_couplings(modes, atom, natural)
    closed = mf.first_order_state(initial, atom, t, gs)
    quad = mf.dyson_first_order(mf.interaction_action(initial, atom, natural, gs),
                                initial, t, hbar=natural.hbar)
    quad_dev = float(np.max(np.abs(closed.amplitudes - quad.amplitudes)))

    absent_zero = all(
        amplitude == 0.0
        for amplitude in mf.first_order_emission(initial, atom, natural, t)[2])

    devs = []
    couplings = np.logspace(-3, -1, 7)
    for d in couplings:
        atom_d = mf.AtomParams(atom.omega0, float(d), atom.u)
        pert = mf.first_order_state(initial, atom_d, t, mf.mode_couplings(modes, atom_d, natural))
        h_full = mf.atom_field_hamiltonian(layout, atom_d, natural)
        h_free = mf.free_hamiltonian_with_atom(layout, atom_d, natural)
        exact = mf.evolve(h_free, mf.evolve(h_full, initial, t), -t)
        devs.append(float(np.linalg.norm(pert.amplitudes - exact.amplitudes)))
    slope = float(np.polyfit(np.log(couplings), np.log(devs), 1)[0])

    kernel_dev = abs(mf.resonance_kernel(0.0, 1.0) - (-1j))
    ok = (quad_dev < 1e-10 and abs(slope - 2.0) <= 0.1 and absent_zero
          and kernel_dev < 1e-12)
    report(7, ok,
           f"closed-vs-quadrature {quad_dev:.2e}; coupling slope {slope:.3f}; "
           f"absent modes exactly zero: {absent_zero}; resonance kernel dev "
           f"{kernel_dev:.2e}")


def test_criterion_8_single_mode_jaynes_cummings(natural):
    mode = mf.mode(+1, (0.0, 0.0, 1.0))
    layout = mf.build_layout([mode], 3, with_atom=True)
    e = mf.polarization(mode.kappa, mode.s)
    atom = mf.AtomParams(omega0=1.0, d=0.05, u=tuple(np.conj(e)))
    g = mf.coupling(mode, atom, natural)
    lam = mf.jc_rabi_half_frequency(atom, g)
    h = mf.atom_field_hamiltonian(layout, atom, natural)
    amps = np.zeros(layout.dimension, dtype=complex)
    amps[layout.flatten(0, 0, EXCITED)] = 1.0
    psi0 = mf.StateVector(layout, amps)
    worst = 0.0
    for t in np.linspace(0.0, 10.0 / lam, 120):
        psi = mf.evolve(h, psi0, float(t))
        pop = float(np.sum(np.abs(layout.view(psi.amplitudes)[EXCITED]) ** 2))
        worst = max(worst, abs(pop - mf.jc_excited_population(atom, g, 0, float(t))))
    report(8, worst < 1e-10,
           f"max population deviation from the analytic oracle over ten Rabi "
           f"periods: {worst:.2e}")


def test_criterion_9_dimension_scaling():
    modes = four_mode_layout(3).modes
    ours = mf.build_layout(modes, 3).dimension
    std = mf.build_standard_layout(modes, 3).dimension
    report(9, (ours, std) == (16, 256), f"linear {ours} vs exponential {std}")


def test_criterion_10_cli_determinism(tmp_path):
    config = json.dumps({
        "modes": [{"omega": 1.0}, {"omega": 2.0}, {"omega": 3.0}, {"omega": 4.0}],
        "nmax": 5,
    })
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config)
    emit_cfg = tmp_path / "emission.json"
    emit_cfg.write_text(json.dumps({
        "modes": [{"s": 1, "kappa": [0.0, 0.0, 0.9]},
                  {"s": -1, "kappa": [1.2, 0.0, 0.0]}],
        "nmax": 3,
        "atom": {"omega0": 1.0, "dipole": 0.01, "direction": [1.0, 0.0, 0.0]},
        "times": [0.5, 1.0],
    }))
    identical = True
    for args, produced in [
        (["verify-algebra", "--config", str(cfg_path)], ["algebra.csv"]),
        (["emission", "--config", str(emit_cfg)],
         ["emission.csv", "emission_convergence.csv", "emission_report.json"]),
    ]:
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        for name in produced:
            identical &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report(10, identical, "repeated runs byte-identical for fixed configs")


def test_vacuum_energy_stays_finite_on_a_large_box(tmp_path):
    """vacuum-energy on the max_index 3 box (684 modes, nmax 4, D = 3420).

    Every zero-photon state has an energy of at most half the largest mode
    energy, while the standard scheme's contrast sums half of every mode
    energy.  The operators are diagonal vectors: one dense D x D operator
    alone would take 187 MB, so the memory bound shows that none is built.
    """
    box = {"edge": 2.0, "max_index": 3}
    cfg_doc = {"box": box, "nmax": 4, "field": {"hbar": 0.8}}
    n_modes = 2 * (7 ** 3 - 1)
    rng = np.random.default_rng(7)
    states = [{"label": f"random_{i}",
               "weights": [[float(re), float(im)] for re, im in rng.normal(size=(n_modes, 2))]}
              for i in range(3)]
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps(cfg_doc))
    cfg, _ = load_config(probe)
    omegas = np.array([m.omega for m in cfg.modes])
    top = int(np.argmax(omegas))
    states.append({"label": "single_mode",
                   "weights": [1.0 if k == top else 0.0 for k in range(n_modes)]})
    config = tmp_path / "box.json"
    config.write_text(json.dumps({**cfg_doc, "states": states}))

    tracemalloc.start()
    try:
        rc = main(["vacuum-energy", "--config", str(config), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    with open(tmp_path / "vacuum.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    half_max = 0.5 * 0.8 * omegas.max()
    energies = [float(r["energy"]) for r in rows]
    contrasts = {float(r["standard_vacuum_energy"]) for r in rows}
    assert len(contrasts) == 1
    contrast = contrasts.pop()
    assert contrast == pytest.approx(0.5 * 0.8 * omegas.sum(), rel=1e-12)
    assert [r["is_vacuum"] for r in rows] == ["true"] * 4
    assert energies[-1] == pytest.approx(half_max, rel=1e-12)
    bound_ok = all(e <= half_max * (1 + 1e-12) for e in energies)
    report("vacuum-box", bound_ok and contrast > max(energies) and peak < 64e6,
           f"{len(rows)} states at most {max(energies):.6g} <= {half_max:.6g}; "
           f"standard contrast {contrast:.6g}; tracemalloc peak {peak / 1e6:.1f} MB")


def test_verify_algebra_on_a_large_box(tmp_path, monkeypatch):
    """verify-algebra on the max_index 2 box (248 modes, nmax 5, D = 1488).

    All 3 M^2 relations hold.  The default annihilators are taken as the
    ladder's M blocks, each its owner's own, with no full block stack built,
    and no cross pair shares a mode, so the traced peak of the verify_algebra
    call stays near its (M, M, 3) deviation table (1.5 MB) and the
    temporaries of one stacked product pass over the M blocks: 2.7 MB
    measured.  M full block stacks alone would take 35 MB.
    """
    config = tmp_path / "box.json"
    config.write_text(json.dumps({"box": {"edge": 2.0, "max_index": 2}, "nmax": 5}))
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return mf.verify_algebra(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr("monofield.cli.verify_algebra", traced)
    rc = main(["verify-algebra", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "algebra.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    n_modes = 248
    passed = sum(r["pass"] == "true" for r in rows)
    report("algebra-box", len(rows) == 3 * n_modes ** 2 == passed and peaks[0] < 10e6,
           f"{passed} of {len(rows)} relations hold on {n_modes} modes; "
           f"tracemalloc peak {peaks[0] / 1e6:.1f} MB")


def test_field_average_fits_in_blocks_on_a_large_box(tmp_path):
    """field_average of the electric field on the max_index 2 box (248 modes,
    nmax 8, D = 2232).

    The three components are (M, b, b) block stacks of about 0.3 MB each;
    written out dense they would take 80 MB each, so the memory bound shows
    that none is.  The averages are checked against the classical formula.
    """
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"box": {"edge": 2.0, "max_index": 2}, "nmax": 8}))
    cfg, _ = load_config(path)
    layout = mf.build_layout(cfg.modes, cfg.nmax)
    assert (layout.n_modes, layout.dimension) == (248, 2232)
    rng = np.random.default_rng(11)
    count = layout.n_modes
    alphas = 0.3 * np.exp(2j * np.pi * rng.uniform(size=count))
    spec = mf.CoherentBatch.make(cfg.modes,
                                 [rng.normal(size=count) + 1j * rng.normal(size=count)], [alphas])
    state = mf.coherent_state(layout, spec)
    t, x = 0.7, (0.3, -0.2, 0.5)
    tracemalloc.start()
    try:
        got = mf.field_average(mf.electric_field, state, cfg.field, t, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = mf.classical_formula(spec, cfg.field, t, x)[1]
    dev = float(np.max(np.abs(got - want)))
    report("field-box", dev < 1e-12 and peak < 16e6,
           f"<E> within {dev:.2e} of the classical formula; "
           f"tracemalloc peak {peak / 1e6:.2f} MB")


def test_field_sweep_in_chunks_on_a_large_box(tmp_path):
    """field-sweep on the max_index 2 box (248 modes, nmax 8, D = 2232) over
    120 grid points.

    The grid is evaluated in chunks of (P, M, b, b) component stacks of about
    256 kB, so the traced peak of the command stays under 4 MB; the whole
    grid in one stack would take over 100 MB.
    """
    rng = np.random.default_rng(12)
    count = 248
    doc = {"box": {"edge": 2.0, "max_index": 2}, "nmax": 8,
           "coherent": {"weights": rng.normal(size=(count, 2)).tolist(),
                        "alphas": (0.1 * rng.normal(size=(count, 2))).tolist()},
           "times": rng.uniform(-1.0, 2.0, size=10).tolist(),
           "points": rng.uniform(0.0, 2.0, size=(12, 3)).tolist()}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        rc = main(["field-sweep", "--config", str(config), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with open(tmp_path / "field_sweep.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    report("field-sweep-box", rc == 0 and len(rows) == 120 and peak < 4e6,
           f"{len(rows)} grid points on {count} modes; tracemalloc peak {peak / 1e6:.2f} MB")


def test_single_oscillator_run_fits_in_blocks_on_a_large_box(tmp_path):
    """The single-oscillator side of compare-standard on the max_index 2 box
    (248 modes, nmax 8, D = 2232).

    Its cross-mode double creation max|a_0^dag a_1^dag| is a product of two
    block stacks; written out dense, the two annihilators alone would take
    160 MB, so the memory bound shows that neither is.
    """
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"box": {"edge": 2.0, "max_index": 2}, "nmax": 8}))
    cfg, _ = load_config(path)
    tracemalloc.start()
    try:
        run = mf.single_oscillator_run(cfg.modes, cfg.nmax, cfg.field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cross = run["cross_mode_double_creation"]
    report("compare-box", run["dimension"] == 2232 and cross == 0.0 and peak < 8e6,
           f"cross-mode double creation {cross!r} on {len(cfg.modes)} modes; "
           f"tracemalloc peak {peak / 1e6:.2f} MB")


BOX_ATOM = {"omega0": 1.0, "dipole": 0.02, "direction": [1.0, [0.0, 0.3], 0.2]}


def weighting_deviation(outdir, n_modes):
    """Largest relative deviation, over every row of comparison_emission.csv,
    of the single-oscillator amplitude from the standard amplitude times the
    mode's sector weight, which must be the default 1/sqrt(M)."""
    with open(outdir / "comparison_emission.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["mode_index"]) for r in rows] == list(range(n_modes))
    worst = 0.0
    for r in rows:
        weight = complex(float(r["weight_re"]), float(r["weight_im"]))
        assert weight == 1.0 / np.sqrt(n_modes)
        single = complex(float(r["single_re"]), float(r["single_im"]))
        weighted = weight * complex(float(r["standard_re"]), float(r["standard_im"]))
        assert weighted != 0.0
        worst = max(worst, abs(single - weighted) / abs(weighted))
    return worst


@pytest.mark.parametrize("with_atom", [False, True], ids=["field", "atom"])
@pytest.mark.parametrize("max_index, n_modes", [(1, 52), (2, 248)])
def test_compare_standard_on_the_box(tmp_path, max_index, n_modes, with_atom):
    """The paper's comparison on the quantization box (52 and 248 modes).

    The standard side comes from closed forms, so the command runs where
    the tensor-product space, of dimension 3^M at standard_nmax 2, could
    never be built.  With the atom, each mode's single-oscillator amplitude
    is the standard one times that mode's sector weight, to a relative
    1e-12 on every mode.
    """
    doc = {"box": {"edge": 2.0, "max_index": max_index}, "nmax": 2}
    if with_atom:
        doc["atom"] = BOX_ATOM
    config = tmp_path / "box.json"
    config.write_text(json.dumps(doc))
    assert main(["compare-standard", "--config", str(config), "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "comparison.json").read_text())
    assert result["dimensions"] == {"single_oscillator": 3 * n_modes, "standard": 3 ** n_modes}
    assert result["algebra"] == {"cross_mode_double_creation_single_oscillator": 0.0,
                                 "cross_mode_double_creation_standard": 1.0}
    assert "jaynes_cummings_check" not in result
    if not with_atom:
        assert not (tmp_path / "comparison_emission.csv").exists()
        return
    worst = weighting_deviation(tmp_path, n_modes)
    report(f"compare-box-{n_modes}", worst <= 1e-12,
           f"single = weight x standard amplitude on all {n_modes} modes, "
           f"worst relative deviation {worst:.2e} (tolerance 1e-12)")


def test_compare_standard_fits_in_blocks_on_a_large_box(tmp_path):
    """compare-standard with the atom on the max_index 2 box (248 modes,
    nmax 8, D = 4464 with the atom).

    Written out dense, one operator on the single-oscillator layout would
    take 319 MB, and the tensor-product space has 4^248 states, so the
    memory bound shows that neither side builds them.
    """
    config = tmp_path / "box.json"
    config.write_text(json.dumps({"box": {"edge": 2.0, "max_index": 2}, "nmax": 8,
                                  "atom": BOX_ATOM}))
    tracemalloc.start()
    try:
        rc = main(["compare-standard", "--config", str(config), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    worst = weighting_deviation(tmp_path, 248)
    report("compare-box-memory", worst <= 1e-12 and peak < 4e6,
           f"weighting within {worst:.2e} (tolerance 1e-12) on 248 modes; "
           f"tracemalloc peak {peak / 1e6:.2f} MB")
