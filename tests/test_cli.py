import json
import time
from pathlib import Path

import pytest

from monofield import algebra
from monofield.cli import load_config, main, ConfigError
from monofield.fields import CoherentSpec, load_coherent_spec
from monofield.hilbert import Operator

DATA = Path(__file__).parent / "data"


def run(command, config, out, *extra):
    return main([command, "--config", str(config), "--out", str(out), *extra])


def replaced(base, path, value):
    """The top-level section of a tests/data config with one entry replaced."""
    doc = json.loads((DATA / base).read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return {path[0]: doc[path[0]]}


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"modes": [{"omega": 1.0}], "nmax": 2, "bogus": 1}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(p)

    def test_modes_and_box_exclusive(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"modes": [{"omega": 1.0}],
                                 "box": {"edge": 1.0, "max_index": 1}, "nmax": 2}))
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(p)

    def test_box_generates_modes_and_volume(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"box": {"edge": 2.0, "max_index": 1}, "nmax": 2}))
        cfg, _ = load_config(p)
        # 26 nonzero integer triples, two polarizations each
        assert len(cfg.modes) == 52
        assert cfg.field.volume == 8.0
        assert cfg.modes[0].s == +1 and cfg.modes[1].s == -1
        assert cfg.modes[0].kappa == cfg.modes[1].kappa

    def test_box_volume_conflict_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"box": {"edge": 2.0, "max_index": 1}, "nmax": 2,
                                 "field": {"volume": 3.0}}))
        with pytest.raises(ConfigError, match="volume"):
            load_config(p)

    def test_time_grid_expansion(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"modes": [{"omega": 1.0}], "nmax": 2,
                                 "time_grid": {"start": 0.0, "stop": 1.0, "num": 5}}))
        cfg, _ = load_config(p)
        assert cfg.times == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_bad_json_maps_to_exit_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        for content in (b'{"nmax": ', b'\xff\xfe{}'):  # truncated, not UTF-8
            p.write_bytes(content)
            assert run("verify-algebra", p, tmp_path) == 2
            assert "config error" in capsys.readouterr().err

    def test_missing_file_maps_to_exit_2(self, tmp_path):
        assert run("verify-algebra", tmp_path / "nope.json", tmp_path) == 2

    @pytest.mark.parametrize("command, base, change", [
        ("emission", "config_emission.json", {"emission_initial": 5}),
        ("field-sweep", "config_field.json", {"points": [[0.0, "a", 0.0]]}),
        ("field-sweep", "config_field.json", {"times": [float("nan")]}),
        ("compare-standard", "config_compare.json", {"nmax": True}),
        ("emission", "config_emission.json", {"couplings": [0.01]}),
        ("emission", "config_emission.json", {"modes": [{"omega": 1.0}]}),
        ("field-sweep", "config_field.json", {"modes": [{"omega": 1.0}, {"omega": 2.0}]}),
        ("vacuum-energy", "config_vac.json", {"tolerances": {"algebra": "x"}}),
        ("vacuum-energy", "config_vac.json", {"tolerances": {"algebra": None}}),
        ("vacuum-energy", "config_vac.json", {"states": 5}),
        ("field-sweep", "config_field.json", {"coherent": {"weights": 5}}),
        ("verify-algebra", "config_algebra.json",
         replaced("config_algebra.json", ["modes", 1], {"omega": 1.0})),
        ("verify-algebra", "config_algebra.json", {"modes": "x"}),
        ("verify-algebra", "config_algebra.json", {"modes": []}),
        ("emission", "config_emission.json", {"emission_initial": [{"mode": 0, "n": 3}]}),
        ("emission", "config_emission.json", {"couplings": [0.001, 0.002, 1e300]}),
        ("emission", "config_emission.json", {"field": {"hbar": 1e-300}}),
        ("emission", "config_emission.json", {"times": [1e300]}),
        ("emission", "config_emission.json", {"times": [1e10]}),
        ("vacuum-energy", "config_vac.json",
         replaced("config_vac.json", ["states", 2, "alphas"], [1e300, 0])),
        ("vacuum-energy", "config_vac.json",
         replaced("config_vac.json", ["states", 0, "weights"], [1e300, 1.0])),
        ("compare-standard", "config_jc.json",
         replaced("config_jc.json", ["atom", "omega0"], 1e300)),
        ("compare-standard", "config_jc.json",
         replaced("config_jc.json", ["atom", "dipole"], 1e-300)),
        ("emission", "config_emission.json", {"times": [0.0]}),
        ("verify-algebra", "config_algebra.json", {"tolerances": {"algebra": 0.0}}),
        ("emission", "config_emission.json", {"tolerances": {"emission": -1e-10}}),
    ], ids=["emission_initial_not_list", "points_not_numeric", "times_nan",
            "nmax_bool", "single_coupling", "emission_abstract_modes",
            "field_sweep_abstract_modes", "tolerance_string", "tolerance_null",
            "states_not_list", "weights_not_list", "duplicate_mode", "modes_string",
            "modes_empty", "initial_top_rung", "coupling_huge", "hbar_tiny", "time_huge", "time_quadrature",
            "alpha_huge", "weight_huge", "jc_omega0_huge", "jc_dipole_tiny",
            "emission_time_zero", "tolerance_zero", "tolerance_negative"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, base, change):
        doc = json.loads((DATA / base).read_text())
        doc.update(change)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))  # NaN is written as the bare constant NaN
        assert run(command, p, tmp_path) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("config error:") for line in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, named", [
        (replaced("config_compare.json", ["field"], {"hbar": "1.0"}), "field.hbar"),
        (replaced("config_compare.json", ["field"], {"hbar": True}), "field.hbar"),
        (replaced("config_emission.json", ["atom", "dipole"], True), "atom.dipole"),
        (replaced("config_emission.json", ["atom", "omega0"], "1.0"), "atom.omega0"),
        (replaced("config_emission.json", ["modes", 0, "kappa"], ["0", "0", "0.8"]),
         "modes[0].kappa[0]"),
        (replaced("config_emission.json", ["modes", 2, "s"], 1.7), "modes[2].s"),
        (replaced("config_algebra.json", ["modes", 0, "j"], True), "modes[0].j"),
        (replaced("config_algebra.json", ["modes", 0, "omega"], 10 ** 400), "modes[0].omega"),
        ({"box": {"edge": True, "max_index": 1}}, "box.edge"),
        ({"box": {"edge": 1.0, "max_index": 1.9}}, "box.max_index"),
        ({"modes": [{"omega": 1.0}], "time_grid": {"start": 0, "stop": 1, "num": 2.7}},
         "time_grid.num"),
        ({"modes": [{"omega": 1.0}], "time_grid": {"start": 0, "stop": 1, "num": True}},
         "time_grid.num"),
        ({"modes": [{"omega": 1.0}], "emission_initial": [{"mode": 0, "n": 2.0}]},
         "emission_initial[0].n"),
        ({"modes": [{"omega": 1.0}], "standard_nmax": 2.0}, "standard_nmax"),
    ], ids=["hbar_string", "hbar_bool", "dipole_bool", "omega0_string", "kappa_strings",
            "s_float", "j_bool", "omega_beyond_float", "edge_bool", "max_index_float",
            "grid_num_float", "grid_num_bool", "initial_n_float", "standard_nmax_float"])
    def test_loose_number_names_the_entry(self, tmp_path, capsys, doc, named):
        doc = {"nmax": 3, **doc}
        if "box" not in doc:
            doc.setdefault("modes", [{"omega": 1.0}])
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run("verify-algebra", p, tmp_path) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("config error:") and named in line
                   for line in err.splitlines())

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_tolerance_flag_must_be_positive_and_finite(self, tmp_path, capsys, value):
        assert run("verify-algebra", DATA / "config_algebra.json", tmp_path,
                   "--tolerance", value) == 2
        assert "config error: --tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("form, value, named", [
        (1, 1.0, None),
        (0.5, 0.5, None),
        ([0, 1], 1j, None),
        (True, None, "states[0]"),
        ("1.5", None, "states[0]"),
        ([1, 2, 3], None, "states[0]"),
        (["1", "0"], None, "states[0]"),
        (float("nan"), None, "NaN"),
    ], ids=["int", "float", "pair", "bool", "string", "triple", "string_pair", "nan"])
    def test_one_complex_parser(self, tmp_path, capsys, form, value, named):
        # the library and the CLI read weights with the same parser
        modes = [{"s": 1, "kappa": [0.0, 0.0, 1.0]}, {"s": -1, "kappa": [0.0, 2.0, 0.0]}]
        spec_doc = {"modes": modes, "weights": [1.0, form]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"modes": modes, "nmax": 2,
                                 "states": [{"weights": [1.0, form]}]}))
        if value is None:
            with pytest.raises(ValueError, match=r"weights\[1\]"):
                load_coherent_spec(spec_doc)
            assert run("vacuum-energy", p, tmp_path) == 2
            err = capsys.readouterr().err
            assert any(line.startswith("config error:") and named in line
                       for line in err.splitlines())
            assert "Traceback" not in err
        else:
            spec = load_coherent_spec(spec_doc)
            cfg, _ = load_config(p)
            assert cfg.states[0][1].weights == spec.weights
            assert spec.weights == CoherentSpec.make(spec.modes, [1.0, value],
                                                     [0.0, 0.0]).weights

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("")
        assert run("verify-algebra", DATA / "config_algebra.json", tmp_path / out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out ")
        assert str(tmp_path / out) in err

    def test_usage_error_exits_2(self):
        import os
        import subprocess
        import sys

        import monofield

        # the child imports the same monofield as this process, installed or not
        src = str(Path(monofield.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "monofield.cli"],
                              capture_output=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 2


class TestVerifyAlgebraCommand:
    def test_passes_and_matches_golden(self, tmp_path):
        assert run("verify-algebra", DATA / "config_algebra.json", tmp_path) == 0
        got = (tmp_path / "algebra.csv").read_bytes()
        assert got == (DATA / "golden_algebra.csv").read_bytes()
        lines = got.decode().splitlines()
        assert len(lines) == 1 + 3 * 16

    def test_injected_fault_exits_1(self, tmp_path, monkeypatch):
        build = algebra.mode_annihilator

        def corrupted(layout, k):
            op = build(layout, k)
            if k != 0:
                return op
            bad = op.toarray()
            bad[0, -1] += 1e-3
            return Operator(layout, bad)

        monkeypatch.setattr(algebra, "mode_annihilator", corrupted)
        assert run("verify-algebra", DATA / "config_algebra.json", tmp_path) == 1

    def test_tolerance_override(self, tmp_path):
        # an absurdly tight tolerance turns sqrt-rounding noise into failures
        assert run("verify-algebra", DATA / "config_algebra.json", tmp_path,
                   "--tolerance", "1e-17") == 1


class TestVacuumEnergyCommand:
    def test_matches_golden(self, tmp_path):
        assert run("vacuum-energy", DATA / "config_vac.json", tmp_path) == 0
        assert (tmp_path / "vacuum.csv").read_bytes() \
            == (DATA / "golden_vacuum.csv").read_bytes()

    def test_requires_states(self, tmp_path):
        assert run("vacuum-energy", DATA / "config_algebra.json", tmp_path) == 2

    def test_hopeless_truncation_exits_2_quickly(self, tmp_path, capsys):
        doc = json.loads((DATA / "config_vac.json").read_text())
        doc["states"] = [{"label": "hot", "weights": [1.0, 1.0], "alphas": [100.0, 0]}]
        p = tmp_path / "hot.json"
        p.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run("vacuum-energy", p, tmp_path) == 2
        # the search runs to its cap of 10000 rungs; re-summing the series
        # for every rung took tens of seconds
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == ("config error: state 'hot': no truncation "
                                           "below 10000 reaches tail mass 1e-10\n")


class TestFieldSweepCommand:
    def test_matches_golden(self, tmp_path):
        assert run("field-sweep", DATA / "config_field.json", tmp_path) == 0
        assert (tmp_path / "field_sweep.csv").read_bytes() \
            == (DATA / "golden_field_sweep.csv").read_bytes()

    def test_empty_grid_writes_header_only(self, tmp_path):
        doc = json.loads((DATA / "config_field.json").read_text())
        doc["times"] = []
        p = tmp_path / "empty.json"
        p.write_text(json.dumps(doc))
        assert run("field-sweep", p, tmp_path) == 0
        content = (tmp_path / "field_sweep.csv").read_text()
        assert content == "t,x,y,z,Ax,Ay,Az,Ex,Ey,Ez,Bx,By,Bz\n"

    def test_alpha_too_large_for_truncation_exits_2(self, tmp_path):
        doc = json.loads((DATA / "config_field.json").read_text())
        doc["coherent"]["alphas"] = [4.0, 0.0]
        p = tmp_path / "hot.json"
        p.write_text(json.dumps(doc))
        assert run("field-sweep", p, tmp_path) == 2


class TestEmissionCommand:
    def test_runs_and_reports_quadratic_slope(self, tmp_path):
        assert run("emission", DATA / "config_emission.json", tmp_path) == 0
        report = json.loads((tmp_path / "emission_report.json").read_text())
        assert report["pass"] is True
        assert abs(report["slope"] - 2.0) < 0.1
        assert report["closed_vs_quadrature"] < 1e-10
        lines = (tmp_path / "emission.csv").read_text().splitlines()
        # 2 times x 3 modes x nmax source sectors
        assert len(lines) == 1 + 2 * 3 * 3

    def test_deterministic_outputs(self, tmp_path):
        run("emission", DATA / "config_emission.json", tmp_path / "a")
        run("emission", DATA / "config_emission.json", tmp_path / "b")
        for name in ("emission.csv", "emission_convergence.csv",
                     "emission_report.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_requires_atom(self, tmp_path):
        assert run("emission", DATA / "config_field.json", tmp_path) == 2

    def test_initial_state_partly_at_top_rung_runs(self, tmp_path):
        doc = json.loads((DATA / "config_emission.json").read_text())
        doc["emission_initial"] = [{"mode": 0, "n": 3}, {"mode": 1, "n": 0}]
        p = tmp_path / "mixed.json"
        p.write_text(json.dumps(doc))
        assert run("emission", p, tmp_path) == 0

    def test_default_initial_state_is_excited_atom_over_every_vacuum(self, tmp_path):
        cfg, _ = load_config(DATA / "config_emission.json")
        assert cfg.emission_initial == {(k, 0, 1): 1.0 for k in range(3)}


class TestCompareStandardCommand:
    def test_dimension_contrast_in_report(self, tmp_path):
        assert run("compare-standard", DATA / "config_compare.json", tmp_path) == 0
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert report["dimensions"] == {"single_oscillator": 16, "standard": 256}
        assert report["algebra"]["cross_mode_double_creation_single_oscillator"] == 0.0
        assert report["algebra"]["cross_mode_double_creation_standard"] == 1.0
        assert (tmp_path / "comparison_emission.csv").exists()

    def test_uncoupled_single_mode_skips_jc_check(self, tmp_path):
        # kappa along -z: the s = +1 polarization is orthogonal to the dipole
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**json.loads((DATA / "config_jc.json").read_text()),
                                 **replaced("config_jc.json", ["modes", 0, "kappa"],
                                            [0, 0, -1])}))
        assert run("compare-standard", p, tmp_path) == 0
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert "jaynes_cummings_check" not in report

    def test_single_mode_jc_check_passes(self, tmp_path):
        assert run("compare-standard", DATA / "config_jc.json", tmp_path) == 0
        report = json.loads((tmp_path / "comparison.json").read_text())
        jc = report["jaynes_cummings_check"]
        assert jc["ok"] is True
        assert jc["max_population_deviation"] < 1e-10

    def test_deterministic_given_seed(self, tmp_path):
        run("compare-standard", DATA / "config_compare.json", tmp_path / "a",
            "--seed", "9")
        run("compare-standard", DATA / "config_compare.json", tmp_path / "b",
            "--seed", "9")
        assert (tmp_path / "a" / "comparison.json").read_bytes() \
            == (tmp_path / "b" / "comparison.json").read_bytes()

    def test_seed_changes_vacuum_samples(self, tmp_path):
        run("compare-standard", DATA / "config_compare.json", tmp_path / "a",
            "--seed", "1")
        run("compare-standard", DATA / "config_compare.json", tmp_path / "b",
            "--seed", "2")
        a = json.loads((tmp_path / "a" / "comparison.json").read_text())
        b = json.loads((tmp_path / "b" / "comparison.json").read_text())
        assert a["vacuum_energy"]["single_oscillator_samples"] \
            != b["vacuum_energy"]["single_oscillator_samples"]
