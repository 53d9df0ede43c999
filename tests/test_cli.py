import json
from pathlib import Path

import pytest

from monofield.cli import load_config, main, ConfigError
from monofield.fields import CoherentSpec, load_coherent_spec

DATA = Path(__file__).parent / "data"


def run(command, config, out, *extra):
    return main([command, "--config", str(config), "--out", str(out), *extra])


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
    ], ids=["emission_initial_not_list", "points_not_numeric", "times_nan",
            "nmax_bool", "single_coupling", "emission_abstract_modes",
            "field_sweep_abstract_modes", "tolerance_string", "tolerance_null",
            "states_not_list", "weights_not_list"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, base, change):
        doc = json.loads((DATA / base).read_text())
        doc.update(change)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))  # NaN is written as the bare constant NaN
        assert run(command, p, tmp_path) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("config error:") for line in err.splitlines())
        assert "Traceback" not in err

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

    def test_injected_fault_exits_1(self, tmp_path):
        assert run("verify-algebra", DATA / "config_algebra.json", tmp_path,
                   "--inject-fault") == 1

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


class TestCompareStandardCommand:
    def test_dimension_contrast_in_report(self, tmp_path):
        assert run("compare-standard", DATA / "config_compare.json", tmp_path) == 0
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert report["dimensions"] == {"single_oscillator": 16, "standard": 256}
        assert report["algebra"]["cross_mode_double_creation_single_oscillator"] == 0.0
        assert report["algebra"]["cross_mode_double_creation_standard"] == 1.0
        assert (tmp_path / "comparison_emission.csv").exists()

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
