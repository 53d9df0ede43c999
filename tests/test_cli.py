import json
import math
import os
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import monofield
from conftest import SWEEP_BOUND, bench_emission_config, loop_sweep
from monofield import algebra, cli, emission, fields, standard
from monofield.cli import load_config, main, ConfigError
from monofield.fields import CoherentBatch, StateError, coherent_rows, coherent_state, read_states
from monofield.hilbert import FieldConfig, Operator, build_layout, load_mode_set, parse_complex

DATA = Path(__file__).parent / "data"
# configs with one bad "states" or "coherent" section (or two bad states),
# each with the exact error line its command must print
STATE_FAULTS = json.loads((DATA / "state_faults.json").read_text())


def fault_config(directory, case):
    """The base config with its section replaced by the case's raw JSON text,
    which may hold numbers such as 1e400 that json.dumps cannot write."""
    doc = json.loads((DATA / case["base"]).read_text())
    doc.pop(case["section"])
    p = directory / "fault.json"
    p.write_text(json.dumps(doc)[:-1] + f', "{case["section"]}": {case["value"]}}}')
    return p


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
    @pytest.mark.parametrize("wrap", [False, True], ids=["bare", "modes"])
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, wrap):
        """JSON nested deeper than the parser can recurse is a config error,
        not a traceback with exit code 1."""
        nested = "[" * 100_000 + "]" * 100_000
        p = tmp_path / "c.json"
        p.write_text(f'{{"modes": {nested}, "nmax": 2}}' if wrap else nested)
        assert run("verify-algebra", p, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edge", [1e300, 1e-300])
    def test_box_whose_wavevector_norm_leaves_the_float_range(self, tmp_path, capsys, edge):
        unit = -2.0 * math.pi / edge  # the first mode is (nx, ny, nz) = (-1, -1, -1)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"box": {"edge": edge, "max_index": 1}, "nmax": 2}))
        assert run("verify-algebra", p, tmp_path) == 2
        assert capsys.readouterr().err == (f"config error: the norm of wavevector "
                                           f"{(unit, unit, unit)!r} is out of the float range\n")

    COMMAND_CONFIGS = [("verify-algebra", "config_algebra.json"),
                       ("vacuum-energy", "config_vac.json"),
                       ("field-sweep", "config_field.json"),
                       ("emission", "config_emission.json"),
                       ("compare-standard", "config_compare.json")]

    @pytest.mark.parametrize("command, config", COMMAND_CONFIGS)
    def test_layout_past_any_array_size_exits_2(self, tmp_path, capsys, command, config):
        """nmax = 2**40 puts one mode's block past sys.maxsize bytes; the parser
        refuses it, naming nmax and the mode count.  (Every array such a run
        could reach is at least 8 TiB, so without the refusal it would fail at
        once, not fill the memory.)"""
        doc = json.loads((DATA / config).read_text())
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**doc, "nmax": 2 ** 40}))
        assert run(command, p, tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"config error: nmax = {2 ** 40} with {len(doc['modes'])} modes: the layout's mode "
            f"blocks would take more than sys.maxsize = {sys.maxsize} bytes\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config", COMMAND_CONFIGS)
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch, command, config):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setitem(cli.COMMANDS, command, exhausted)
        assert run(command, DATA / config, tmp_path) == 2
        modes = len(json.loads((DATA / config).read_text())["modes"])
        nmax = load_config(DATA / config)[0].nmax
        assert capsys.readouterr().err == (f"config error: nmax = {nmax} with {modes} modes: "
                                           "the run does not fit in memory\n")

    @pytest.mark.parametrize("command, config", COMMAND_CONFIGS)
    def test_box_past_any_array_size_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                             config):
        """max_index = 10**8 gives 1.6e25 modes, past sys.maxsize bytes at any
        nmax: the parser refuses it before it builds a single mode (building
        them would run until the memory is exhausted)."""
        def refused(*args, **kwargs):
            raise AssertionError("a mode of the refused box was built")

        monkeypatch.setattr(cli, "mode", refused)
        doc = json.loads((DATA / config).read_text())
        doc.pop("modes")
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**doc, "box": {"edge": 2.0, "max_index": 10 ** 8}}))
        start = time.perf_counter()
        assert run(command, p, tmp_path / "out") == 2
        assert time.perf_counter() - start < 1.0
        count = 2 * ((2 * 10 ** 8 + 1) ** 3 - 1)
        assert capsys.readouterr().err == (
            f"config error: box.max_index = {10 ** 8} gives {count} modes: the layout's mode "
            f"blocks would take more than sys.maxsize = {sys.maxsize} bytes\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config", COMMAND_CONFIGS)
    def test_box_past_the_physical_memory_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                                  config):
        """max_index = 1000 gives 1.6e10 modes, whose smallest blocks (1.0e12
        bytes) pass the sys.maxsize check but, with the mode objects, not the
        physical memory: the parser refuses the box before it builds a single
        mode."""
        def refused(*args, **kwargs):
            raise AssertionError("a mode of the refused box was built")

        monkeypatch.setattr(cli, "mode", refused)
        doc = json.loads((DATA / config).read_text())
        doc.pop("modes")
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**doc, "box": {"edge": 2.0, "max_index": 1000}}))
        count = 2 * (2001 ** 3 - 1)
        blocks, objects = 16 * count * 2 * 2, cli.MODE_BYTES * count
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert memory < blocks <= sys.maxsize
        start = time.perf_counter()
        assert run(command, p, tmp_path / "out") == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"config error: box.max_index = 1000 gives {count} modes: the layout's mode blocks "
            f"({blocks} bytes) and the mode objects ({objects} bytes) would take more than "
            f"the {memory} bytes of physical memory\n")
        assert not (tmp_path / "out").exists()

    def test_box_whose_mode_objects_pass_the_physical_memory_exits_2(self, tmp_path, capsys,
                                                                      monkeypatch):
        """max_index = 10 gives 18 520 modes: on a 4 MB memory their smallest
        blocks (1.2 MB) fit, but not with the mode objects, so the parser
        refuses the box before it builds a single mode."""
        def refused(*args, **kwargs):
            raise AssertionError("a mode of the refused box was built")

        monkeypatch.setattr(cli, "mode", refused)
        monkeypatch.setattr(os, "sysconf",
                            lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}[name])
        doc = json.loads((DATA / "config_algebra.json").read_text())
        doc.pop("modes")
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**doc, "box": {"edge": 2.0, "max_index": 10}}))
        count = 2 * (21 ** 3 - 1)
        blocks, objects = 16 * count * 2 * 2, cli.MODE_BYTES * count
        assert count == 18520 and blocks < 4 * 2 ** 20 < blocks + objects
        assert run("verify-algebra", p, tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"config error: box.max_index = 10 gives {count} modes: the layout's mode blocks "
            f"({blocks} bytes) and the mode objects ({objects} bytes) would take more than "
            f"the {4 * 2 ** 20} bytes of physical memory\n")
        assert not (tmp_path / "out").exists()

    def test_mode_bytes_bounds_what_a_box_mode_takes(self):
        """MODE_BYTES is at least the traced peak per mode of building a box."""
        tracemalloc.start()
        try:
            modes, _ = cli._box_modes({"edge": 2.0, "max_index": 4}, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(modes) == 1456
        assert peak / len(modes) <= cli.MODE_BYTES

    @pytest.mark.parametrize("command, config", COMMAND_CONFIGS)
    def test_memory_error_while_parsing_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                                config):
        """A box too large for the memory but within sys.maxsize fails while
        its modes are built; that is a config error, with no traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "mode", exhausted)
        doc = json.loads((DATA / config).read_text())
        doc.pop("modes")
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**doc, "box": {"edge": 2.0, "max_index": 1}}))
        assert run(command, p, tmp_path / "out") == 2
        assert capsys.readouterr().err == "config error: parsing the config ran out of memory\n"
        assert not (tmp_path / "out").exists()

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

    TIME_GRID_FAULTS = [
        ({"start": 0.0, "stop": 1.0, "num": 10 ** 12},
         "time_grid.num = 1000000000000: the grid's times do not fit in memory"),
        ({"start": 0.0, "stop": 1.0, "num": 2 ** 63},
         f"time_grid.num = {2 ** 63}: the grid's times would take more than "
         f"sys.maxsize = {sys.maxsize} bytes"),
        ({"start": 0.0, "stop": 1.0, "num": 10 ** 20},
         f"time_grid.num = {10 ** 20}: the grid's times would take more than "
         f"sys.maxsize = {sys.maxsize} bytes"),
        ({"start": -1e308, "stop": 1e308, "num": 5},
         "time_grid.start = -1e+308 and time_grid.stop = 1e+308: "
         "stop - start is out of the float range"),
    ]

    @pytest.mark.parametrize("grid, error", TIME_GRID_FAULTS,
                             ids=["num_out_of_memory", "num_2_63", "num_1e20", "span_overflows"])
    @pytest.mark.parametrize("command, config", COMMAND_CONFIGS)
    def test_time_grid_refusal_names_the_entry(self, tmp_path, capsys, command, config, grid,
                                               error):
        """Each fault is refused while parsing, so every command prints the
        same line; num = 10**12 asks numpy for 7.28 TiB, which fails at once."""
        doc = json.loads((DATA / config).read_text())
        doc.pop("times", None)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**doc, "time_grid": grid}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, p, tmp_path / "out") == 2
        assert caught == []
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "out").exists()

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
        ("emission", "config_emission.json", {"times": [1e160]}),
        ("vacuum-energy", "config_vac.json",
         replaced("config_vac.json", ["states", 2, "alphas"], [1e300, 0])),
        ("compare-standard", "config_jc.json",
         replaced("config_jc.json", ["atom", "omega0"], 1e300)),
        ("compare-standard", "config_jc.json",
         replaced("config_jc.json", ["atom", "dipole"], 1e-300)),
        ("emission", "config_emission.json", {"times": [0.0]}),
        ("verify-algebra", "config_algebra.json", {"tolerances": {"algebra": 0.0}}),
        ("emission", "config_emission.json", {"tolerances": {"emission": -1e-10}}),
        ("field-sweep", "config_field.json", {"field": {"c": 1e10}, "times": [1e300]}),
        ("field-sweep", "config_field.json", {"points": [[1e308, 1e308, 1e308]]}),
        ("field-sweep", "config_field.json", {"times": [0.0, -5e307],
                                              "points": [[0.0, 0.0, 0.0], [0.0, 5e307, 0.0]]}),
        ("emission", "config_emission.json",
         {"modes": [{"s": 1, "kappa": [0, 0, 1]}, {"s": 1, "kappa": [1, 0, 0]}], "nmax": 2,
          "atom": {"omega0": 1, "dipole": 0.01, "direction": [0, 0, 1]}, "times": [1],
          "emission_initial": [{"mode": 0, "n": 0, "amp": 1}]}),
    ], ids=["emission_initial_not_list", "points_not_numeric", "times_nan",
            "nmax_bool", "single_coupling", "emission_abstract_modes",
            "field_sweep_abstract_modes", "tolerance_string", "tolerance_null",
            "states_not_list", "weights_not_list", "duplicate_mode", "modes_string",
            "modes_empty", "initial_top_rung", "coupling_huge", "hbar_tiny", "time_huge", "time_quadrature",
            "probability_overflow",
            "alpha_huge", "jc_omega0_huge", "jc_dipole_tiny",
            "emission_time_zero", "tolerance_zero", "tolerance_negative",
            "sweep_time_phase_huge", "sweep_point_phase_huge", "sweep_phase_sum_huge",
            "emission_atom_uncoupled"])
    @pytest.mark.filterwarnings("error")
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
        entries = [{"weights": [1.0, form]}]
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"modes": modes, "nmax": 2, "states": entries}))
        if value is None:
            with pytest.raises(ValueError, match=r"weights\[1\]"):
                read_states(load_mode_set(modes), entries)
            assert run("vacuum-energy", p, tmp_path) == 2
            err = capsys.readouterr().err
            assert any(line.startswith("config error:") and named in line
                       for line in err.splitlines())
            assert "Traceback" not in err
        else:
            batch, _ = read_states(load_mode_set(modes), entries)
            cfg, _ = load_config(p)
            assert cfg.states.weights.tobytes() == batch.weights.tobytes()
            assert batch.weights.tobytes() == CoherentBatch.make(
                batch.modes, [[1.0, value]], [[0.0, 0.0]]).weights.tobytes()

    @pytest.mark.parametrize("case", STATE_FAULTS, ids=[c["id"] for c in STATE_FAULTS])
    def test_state_fault_names_the_first_bad_state(self, tmp_path, capsys, case):
        # the exact line of the per-state reader this one replaced
        assert run(case["command"], fault_config(tmp_path, case), tmp_path) == 2
        assert capsys.readouterr().err == case["error"] + "\n"

    @pytest.mark.parametrize("label, error", [
        ([1, 2], "bad states[1]: label: expected a string, got [1, 2]"),
        (5, "bad states[1]: label: expected a string, got 5"),
        (None, "bad states[1]: label: expected a string, got None"),
    ])
    def test_label_must_be_a_string(self, tmp_path, label, error):
        doc = json.loads((DATA / "config_vac.json").read_text())
        doc["states"][1]["label"] = label
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == error

    def test_missing_label_is_numbered(self, tmp_path):
        doc = json.loads((DATA / "config_vac.json").read_text())
        del doc["states"][2]["label"]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        cfg, _ = load_config(p)
        assert cfg.state_labels == ("uniform_vacuum", "low_mode_only", "state2")

    @pytest.mark.parametrize("weights, plain", [
        ([1e200, 1e200], [1, 1]),
        ([1.5e308, 1.5e308], [1, 1]),
        ([[0.0, 1e300], [0.0, -1e300]], [[0, 1], [0, -1]]),
        ([1e300, 1.0], [1, 1e-300]),
    ], ids=["1e200", "1.5e308", "imaginary_1e300", "weight_huge"])
    def test_weights_whose_norm_overflows_are_normalised(self, tmp_path, weights, plain):
        doc = json.loads((DATA / "config_vac.json").read_text())
        outputs = []
        for w in (weights, plain):
            doc["states"] = [{"label": "s", "weights": w}]
            p = tmp_path / "c.json"
            p.write_text(json.dumps(doc))
            outputs.append(load_config(p)[0].states.weights.tobytes())
            assert run("vacuum-energy", p, tmp_path) == 0
            outputs.append((tmp_path / "vacuum.csv").read_bytes())
        assert outputs[:2] == outputs[2:]

    def test_seed_must_be_non_negative(self, tmp_path, capsys):
        assert run("compare-standard", DATA / "config_compare.json", tmp_path,
                   "--seed", "-1") == 2
        assert capsys.readouterr().err == ("config error: --seed must be a non-negative "
                                           "integer, got -1\n")

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
        # the default check reads its blocks from the ladder: corrupt mode 0's
        build = algebra.ladder

        def corrupted(layout):
            bad = build(layout).as_blocks().copy()
            bad[0, 0, -1] += 1e-3
            return Operator(layout, bad)

        monkeypatch.setattr(algebra, "ladder", corrupted)
        assert run("verify-algebra", DATA / "config_algebra.json", tmp_path) == 1

    def test_tolerance_override(self, tmp_path):
        # an absurdly tight tolerance turns sqrt-rounding noise into failures
        assert run("verify-algebra", DATA / "config_algebra.json", tmp_path,
                   "--tolerance", "1e-17") == 1
        assert (tmp_path / "algebra.csv").read_bytes() \
            == (DATA / "golden_algebra_tight.csv").read_bytes()


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

    @pytest.mark.parametrize("times, points, named", [
        ([0.0, 0.5, 1.0, 1e308], [[0.1, 0.2, 0.3]] * 4, "times[3] = 1e+308"),
        ([0.0, 0.5, -1.0], [[0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [0.4, -0.2, 0.0]] * 3
         + [[0.0, -1e308, 0.0]], "points[9] = [0.0, -1e+308, 0.0]"),
        ([-0.5, 0.7, 3e307], [[0.0, 0.0, 0.0], [0.3, 0.1, -0.2], [3e307, 0.0, 0.0], [1.0] * 3],
         "times[2] = 3e+307 and points[2] = [3e+307, 0.0, 0.0]"),
    ], ids=["time", "point", "both"])
    @pytest.mark.filterwarnings("error")
    def test_phase_refused_in_a_later_chunk(self, tmp_path, capsys, times, points, named):
        """On the 52-mode box field-sweep takes chunks of 8 points; a phase
        that first overflows at grid point 12, 9 or 10 names its own time,
        point or both."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"box": {"edge": 2.0, "max_index": 1}, "nmax": 5,
                                 "coherent": {"weights": [1.0] * 52, "alphas": [0.05] * 52},
                                 "times": times, "points": points}))
        assert run("field-sweep", p, tmp_path) == 2
        assert capsys.readouterr().err == (f"config error: {named}: the phase omega*t - kappa.x "
                                           "of a mode is out of the float range\n")
        assert not (tmp_path / "field_sweep.csv").exists()


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

    def test_matches_golden(self, tmp_path):
        assert run("emission", DATA / "config_emission.json", tmp_path) == 0
        assert (tmp_path / "emission.csv").read_bytes() \
            == (DATA / "golden_emission.csv").read_bytes()

    def test_finds_the_coupling_row_once(self, tmp_path, monkeypatch):
        calls, found = [], emission._mode_couplings

        def counted(*args):
            calls.append(args)
            return found(*args)

        monkeypatch.setattr(emission, "_mode_couplings", counted)
        monkeypatch.setattr(cli, "_mode_couplings", counted)
        assert run("emission", DATA / "config_emission.json", tmp_path) == 0
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    def test_probability_overflow_names_the_time_and_leaves_no_table(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**json.loads((DATA / "config_emission.json").read_text()),
                                 "times": [0.5, 1e160, 1e300]}))
        assert run("emission", p, tmp_path / "out") == 2
        assert capsys.readouterr().err == \
            "config error: times[1] = 1e+160: the emission probability overflows\n"
        assert not (tmp_path / "out" / "emission.csv").exists()

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

    @staticmethod
    def initial_config(directory, entries):
        doc = json.loads((DATA / "config_emission.json").read_text())
        doc["emission_initial"] = entries
        p = directory / "initial.json"
        p.write_text(json.dumps(doc))
        return p

    @pytest.mark.parametrize("amp", [1e-200, 1e200])
    def test_amplitudes_whose_squares_under_or_overflow_are_normalised(self, tmp_path, amp):
        outputs = []
        for scale in (1.0, amp):
            config = self.initial_config(tmp_path, [{"mode": 0, "amp": scale},
                                                    {"mode": 1, "amp": scale}])
            assert run("emission", config, tmp_path / str(scale)) == 0
            outputs.append((tmp_path / str(scale) / "emission.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_warm_run_takes_the_couplings_from_the_cached_table(self, tmp_path, monkeypatch):
        # 24 modes with the atom, as the benchmark's emission run: the second
        # run builds no polarization basis and calls no one-mode coupling
        rng = np.random.default_rng(24)
        doc = {"modes": [{"s": int(s), "kappa": k.tolist()}
                         for s, k in zip(rng.choice([-1, 1], size=24), rng.normal(size=(24, 3)))],
               "nmax": 3, "times": [0.7, 1.1],
               "atom": {"omega0": 1.2, "dipole": 0.01, "direction": [1.0, [0.0, 0.5], -0.3]},
               "emission_initial": [{"mode": k, "n": k % 3, "amp": 1.0} for k in range(0, 24, 4)]}
        p = tmp_path / "modes24.json"
        p.write_text(json.dumps(doc))
        assert run("emission", p, tmp_path / "cold") == 0
        calls = Counter()
        for owner, name in ((emission, "coupling"), (fields, "polarization_basis")):
            original = getattr(owner, name)

            def counted(*args, original=original, name=name):
                calls[name] += 1
                return original(*args)
            for module in (monofield, cli, emission, fields, standard):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        assert run("emission", p, tmp_path / "warm") == 0
        assert (calls["coupling"], calls["polarization_basis"]) == (0, 0)

    def test_repeated_entries_whose_sum_overflows_exit_2(self, tmp_path, capsys):
        config = self.initial_config(tmp_path, [{"mode": 0, "amp": 1e308},
                                                {"mode": 0, "amp": 1e308}])
        assert run("emission", config, tmp_path) == 2
        assert capsys.readouterr().err == \
            "config error: emission_initial[1]: the amplitudes of mode 0, n 0 sum to (inf+0j)\n"


class TestFiniteOutputs:
    def test_atom_whose_coupling_scale_overflows_exits_2(self, tmp_path, capsys):
        # each entry alone is in range; the product hbar*omega0*dipole is not
        doc = json.loads((DATA / "config_compare.json").read_text())
        doc["atom"].update(omega0=1e200, dipole=1e200)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run("compare-standard", p, tmp_path) == 2
        assert capsys.readouterr().err == (
            "config error: atom.omega0 = 1e+200 and atom.dipole = 1e+200 with field.hbar = "
            "1.0: the coupling scale hbar*omega0*dipole overflows\n")
        assert not (tmp_path / "comparison.json").exists()

    @pytest.mark.parametrize("command, base, field, scale", [
        ("emission", "config_emission.json", {"hbar": 1e-200, "volume": 1e-200},
         "mode coupling 1/(2*hbar*omega*V)"),
        ("compare-standard", "config_compare.json", {"hbar": 1e-300, "c": 1e-300},
         "mode coupling 1/(2*hbar*omega*V)"),
        ("field-sweep", "config_field.json", {"hbar": 1e300, "c": 1e300},
         "energy scale hbar*omega*(nmax+1)"),
        ("vacuum-energy", "config_vac.json", {"hbar": 1e308}, "energy scale hbar*omega*(nmax+1)"),
        ("emission", "config_emission.json", {"hbar": 1e300, "c": 1e300},
         "energy scale hbar*omega*(nmax+1)"),
        ("vacuum-energy", "config_vac.json", {"hbar": 1e308, "c": 1e-10},
         "momentum scale hbar*|kappa_i|*(nmax+1)"),
        ("field-sweep", "config_field.json", {"c": 1e300, "volume": 1e300},
         "vector-potential scale hbar/(2*omega*V)*(nmax+1)"),
        ("field-sweep", "config_field.json", {"c": 1e-300, "volume": 1e-300},
         "vector-potential scale hbar/(2*omega*V)*(nmax+1)"),
    ])
    def test_field_constants_whose_scale_is_out_of_range_exit_2(self, tmp_path, capsys, command,
                                                                base, field, scale):
        # each constant alone is in range; a scale formed from them is not, and
        # is refused before a command computes with it: no traceback, no warning
        doc = json.loads((DATA / base).read_text())
        doc["field"] = field
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, p, tmp_path) == 2
        assert not caught
        hbar, c, volume = (field.get(key, 1.0) for key in ("hbar", "c", "volume"))
        assert capsys.readouterr().err == (
            f"config error: field.hbar = {hbar!r}, field.c = {c!r} and field.volume = "
            f"{volume!r}: the {scale} is out of the float range\n")

    def test_box_whose_field_scale_is_out_of_range_is_refused(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"box": {"edge": 1e-103, "max_index": 1}, "nmax": 2}))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == (
            "field.hbar = 1.0, field.c = 1.0 and the box volume = 1e-309: "
            "the field scale hbar*omega/(2*V)*(nmax+1) is out of the float range")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_writers_refuse_a_non_finite_number(self, tmp_path, value):
        with pytest.raises(ConfigError) as exc:
            cli._write_json(tmp_path / "r.json", {"a": [1.0, {"b": value}]})
        assert str(exc.value) == (f"{tmp_path / 'r.json'}: the report would hold "
                                  "a non-finite number")
        assert not (tmp_path / "r.json").exists()
        with pytest.raises(ConfigError) as exc:
            cli._write_csv(tmp_path / "r.csv", ["label", "x", "y"],
                           [["nan", "a"], [1.0, 3.0], np.array([2.0, value])])
        assert str(exc.value) == f"{tmp_path / 'r.csv'}: column 'y' would hold a non-finite number"
        assert not (tmp_path / "r.csv").exists()

    def test_a_label_may_read_nan(self, tmp_path):
        cli._write_csv(tmp_path / "r.csv", ["label", "x"], [["nan", "inf"], [1.0, 0.5]])
        assert (tmp_path / "r.csv").read_text() == "label,x\nnan,1.0\ninf,0.5\n"


class TestCsvWriter:
    def test_a_refusal_opens_no_file(self, tmp_path):
        # the directory does not exist: opening the file first would raise OSError
        path = tmp_path / "missing" / "r.csv"
        with pytest.raises(ConfigError):
            cli._write_csv(path, ["x"], [np.array([1.0, np.nan])])
        assert not path.parent.exists()

    def test_the_first_non_finite_cell_in_row_major_order_is_named(self, tmp_path):
        x = np.arange(8.0)
        y = np.arange(8.0)
        x[5], y[3] = np.inf, np.nan
        with pytest.raises(ConfigError) as exc:
            cli._write_csv(tmp_path / "r.csv", ["x", "y"], [x, y])
        assert str(exc.value) == f"{tmp_path / 'r.csv'}: column 'y' would hold a non-finite number"
        x[1] = -np.inf  # now x's row 1 comes first
        with pytest.raises(ConfigError) as exc:
            cli._write_csv(tmp_path / "r.csv", ["x", "y"], [x, y])
        assert "column 'x'" in str(exc.value)

    def test_each_kind_of_column_is_formatted_as_a_whole(self, tmp_path):
        cli._write_csv(tmp_path / "r.csv", ["b", "i", "s", "f", "g"],
                       [np.array([True, False]), np.array([3, -7]), ["a,b", ""],
                        np.array([0.1, -0.0]), [1e-320, 1.5e300]])
        assert (tmp_path / "r.csv").read_text() == \
            'b,i,s,f,g\ntrue,3,"a,b",0.1,1e-320\nfalse,-7,,-0.0,1.5e+300\n'

    def test_python_bools_and_ints_keep_their_kind(self, tmp_path):
        cli._write_csv(tmp_path / "r.csv", ["b", "i"], [[False, True], [0, 12]])
        assert (tmp_path / "r.csv").read_text() == "b,i\nfalse,0\ntrue,12\n"

    def test_emission_without_times_writes_the_header_alone(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**json.loads((DATA / "config_emission.json").read_text()),
                                 "times": []}))
        assert run("emission", p, tmp_path) == 0
        assert (tmp_path / "emission.csv").read_bytes() == \
            b"t,s,kx,ky,kz,omega,n_initial,amp_re,amp_im,channel,prob\n"


@pytest.mark.parametrize("write", [
    lambda path: cli._write_csv(path, ["s", "x"], [["a,b", "c"], np.array([0.1, -2.0])]),
    lambda path: cli._write_json(path, {"b": [1.0, 1j], "a": None}),
    lambda path: algebra.algebra_reports_csv(algebra.AlgebraTable(1e-12, np.full((3, 3, 3), 0.5)),
                                             path),
], ids=["_write_csv", "_write_json", "algebra_reports_csv"])
def test_writers_overwrite_a_longer_stale_file_byte_exactly(tmp_path, write):
    write(tmp_path / "fresh")
    want = (tmp_path / "fresh").read_bytes()
    path = tmp_path / "stale"
    path.write_bytes(b"x" * (3 * len(want)))
    write(path)
    assert path.read_bytes() == want


class TestConvergenceSweep:
    """The doublet sweep against the per-coupling ``eigh`` loop: every
    deviation within :data:`conftest.SWEEP_BOUND`, every refusal the same
    line, no warning."""

    BASE = json.loads((DATA / "config_emission.json").read_text())

    def sweep(self, tmp_path, doc):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        cfg, _ = load_config(p)
        t = cfg.times[-1] if cfg.times else 1.0
        couplings = cfg.couplings or tuple(np.logspace(-3.0, -1.0, 7).tolist())
        with warnings.catch_warnings():
            # the loop warns on a non-finite generator; the command must not
            warnings.simplefilter("ignore")
            return p, loop_sweep(cfg, t, couplings)

    @pytest.mark.parametrize("doc", [
        BASE,
        bench_emission_config(11),
        bench_emission_config(3),
        {**BASE, "couplings": [0.001, 0.01]},
        {**BASE, "couplings": np.logspace(-4.0, -0.5, 12).tolist()},
        {**BASE, "couplings": [0.05, 0.001, 0.02, 0.003, 0.2]},
    ], ids=["config_emission", "bench_11", "bench_3", "two", "twelve", "non_monotone"])
    @pytest.mark.filterwarnings("error")
    def test_deviations_are_those_of_the_loop(self, tmp_path, doc):
        p, want = self.sweep(tmp_path, doc)
        assert run("emission", p, tmp_path) in (0, 1)
        report = json.loads((tmp_path / "emission_report.json").read_text())
        assert len(report["deviations"]) == len(want)
        assert np.max(np.abs(np.subtract(report["deviations"], want))) <= SWEEP_BOUND
        rows = (tmp_path / "emission_convergence.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == list(map(repr, report["deviations"]))

    @pytest.mark.parametrize("change", [
        {"couplings": [1e300, 0.001, 0.002]},
        {"couplings": [0.001, 1e300, 0.002]},
        {"field": {"hbar": 1e-300}},
        {"couplings": [0.001, 1e300, 0.002],
         "atom": {"omega0": 1e10, "dipole": 0.01, "direction": [1.0, [0.0, 0.3], 0.0]}},
    ], ids=["huge_first", "huge_middle", "hbar_tiny", "non_finite_middle"])
    @pytest.mark.filterwarnings("error")
    def test_refusal_is_the_line_of_the_loop(self, tmp_path, capsys, change):
        p, want = self.sweep(tmp_path, {**self.BASE, **change})
        assert isinstance(want, str)
        assert run("emission", p, tmp_path) == 2
        assert capsys.readouterr().err == want

    @pytest.mark.filterwarnings("error")
    def test_singlet_phase_refusal_is_the_line_of_the_loop(self, tmp_path, capsys):
        # at t = 1e16 the largest phase is that of the singlet |k, nmax, e>
        # of the fastest mode, above every doublet's
        p, want = self.sweep(tmp_path, {**self.BASE, "times": [0.5, 1e16]})
        assert "largest phase |lambda*t/hbar| = 5.050e+16" in want
        assert run("emission", p, tmp_path) == 2
        assert capsys.readouterr().err == want

    def test_non_finite_generator_is_named(self, tmp_path):
        doc = {**self.BASE, "couplings": [0.001, 1e300, 0.002],
               "atom": {"omega0": 1e10, "dipole": 0.01, "direction": [1.0, [0.0, 0.3], 0.0]}}
        _, want = self.sweep(tmp_path, doc)
        assert want.endswith("coupling 1e+300, t = 1.0, field.hbar = 1.0: "
                             "generator has non-finite entries\n")


class TestCompareStandardCommand:
    def test_dimension_contrast_in_report(self, tmp_path):
        assert run("compare-standard", DATA / "config_compare.json", tmp_path) == 0
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert report["dimensions"] == {"single_oscillator": 16, "standard": 256}
        assert report["algebra"]["cross_mode_double_creation_single_oscillator"] == 0.0
        assert report["algebra"]["cross_mode_double_creation_standard"] == 1.0
        assert (tmp_path / "comparison_emission.csv").exists()

    def test_matches_golden(self, tmp_path):
        assert run("compare-standard", DATA / "config_compare.json", tmp_path) == 0
        assert (tmp_path / "comparison_emission.csv").read_bytes() \
            == (DATA / "golden_comparison_emission.csv").read_bytes()

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

    @pytest.mark.parametrize("key, value, message", [
        ("omega0", 1e300,
         "config error: Jaynes-Cummings check: atom.omega0 = 1e+300 and atom.dipole = 0.05 "
         "give half-Rabi frequency 3.535533905932738e+298: "),
        ("dipole", 1e-300,
         "config error: Jaynes-Cummings check: atom.omega0 = 1.0 and atom.dipole = 1e-300 "
         "give half-Rabi frequency 7.071067811865476e-301: matrix exponential overflowed "
         "(largest phase |lambda*t/hbar| = 5.657e+299, limit 4.504e+15; rescale the "
         "generator or the time)\n"),
    ], ids=["jc_omega0_huge", "jc_dipole_tiny"])
    def test_jc_refusals_name_the_first_refused_time(self, tmp_path, capsys, key, value,
                                                      message):
        # the phase named is the one at the first of the 101 times that is refused
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**json.loads((DATA / "config_jc.json").read_text()),
                                 **replaced("config_jc.json", ["atom", key], value)}))
        assert run("compare-standard", p, tmp_path) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_overflowing_emission_names_the_time(self, tmp_path, capsys, t):
        # the kernel exp(i*delta*t) overflows; refused before any file is written
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**json.loads((DATA / "config_compare.json").read_text()),
                                 "times": [t]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("compare-standard", p, tmp_path / "out") == 2
        assert not caught
        assert capsys.readouterr().err == (f"config error: t = {t!r}: the first-order emission "
                                           "amplitudes are out of the float range\n")
        assert not (tmp_path / "out" / "comparison.json").exists()

    @pytest.mark.parametrize("path, value", [
        (["atom", "omega0"], 1e-320),
        (["atom", "dipole"], 1e-320),
        (["atom", "dipole"], 5e-324),
        (["atom", "direction", 2], 1e308),
        (["atom", "direction", 2], -1e308),
    ], ids=["omega0_1e-320", "dipole_1e-320", "dipole_5e-324", "direction_z_1e308",
            "direction_z_-1e308"])
    def test_subnormal_half_rabi_frequency_names_the_horizon(self, tmp_path, capsys, path,
                                                             value):
        # lambda in [5e-324, 3.5e-310] makes the horizon 10/lambda overflow
        p = tmp_path / "c.json"
        p.write_text(json.dumps({**json.loads((DATA / "config_jc.json").read_text()),
                                 **replaced("config_jc.json", path, value)}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("compare-standard", p, tmp_path) == 2
        assert not caught
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nan" not in err
        assert err.startswith("config error: Jaynes-Cummings check: atom.omega0 = ")
        assert err.endswith(": the horizon 10/lambda = inf is out of the float range\n")

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


def _vacuum_doc(rng, modes, nmax, n_states, alpha_scale, vacuum_every=3):
    """A vacuum-energy config: random weights (a few exact zeros) and
    coherent amplitudes, every ``vacuum_every``-th state with all alphas 0."""
    states = []
    for i in range(n_states):
        weights = rng.normal(size=(len(modes), 2))
        weights[rng.uniform(size=len(modes)) < 0.2] = 0.0
        weights[0] = [1.0, 0.0]
        radius = 0.0 if i % vacuum_every == 0 else alpha_scale
        alphas = radius * rng.uniform(size=len(modes)) \
            * np.exp(2j * np.pi * rng.uniform(size=len(modes)))
        states.append({"label": f"s{i}",
                       "weights": [[float(re), float(im)] if im else float(re)
                                   for re, im in weights],
                       "alphas": [[a.real, a.imag] for a in alphas.tolist()]})
    return {"modes": modes, "nmax": nmax, "states": states}


PROPAGATING = [{"s": 1, "kappa": [0.0, 0.0, 1.0]}, {"s": -1, "kappa": [0.0, 2.0, 0.0]},
               {"s": 1, "kappa": [1.0, -1.0, 0.5]}, {"s": -1, "kappa": [-0.3, 0.2, 0.9]}]
ABSTRACT = [{"omega": 1.0}, {"omega": 2.5}, {"omega": 0.7, "j": 1}]


def _per_state_rows(doc):
    """vacuum.csv rows as the command built them state by state: each state
    read on its own, then coherent_state, vacuum_subspace_check and one
    expect per operator."""
    from monofield.algebra import hamiltonian, momentum
    from monofield.emission import vacuum_subspace_check
    from monofield.fields import coherent_state
    from monofield.hilbert import build_layout, expect, load_mode_set
    from monofield.standard import standard_vacuum_energy

    modes = load_mode_set(doc["modes"])
    layout = build_layout(modes, doc["nmax"])
    h = hamiltonian(layout)
    p_ops = momentum(layout) if all(not m.abstract for m in modes) else None
    contrast = standard_vacuum_energy(modes, FieldConfig())
    lines, amplitudes = ["label,is_vacuum,energy,px,py,pz,standard_vacuum_energy"], []
    for entry in doc["states"]:
        state = coherent_state(layout, read_states(modes, [entry])[0])
        check = vacuum_subspace_check(state)
        p = [repr(expect(op, state).real) for op in p_ops] if p_ops else ["", "", ""]
        lines.append(",".join([entry["label"], "true" if check.is_vacuum else "false",
                               repr(expect(h, state).real), *p, repr(contrast)]))
        amplitudes.append(state.amplitudes)
    return "\n".join(lines) + "\n", np.array(amplitudes)


class TestVacuumEnergyBatch:
    @pytest.mark.parametrize("modes, nmax, n_states, alpha_scale", [
        (PROPAGATING, 1, 12, 3e-3),
        (PROPAGATING, 12, 12, 0.8),
        (ABSTRACT, 12, 7, 0.8),
        (PROPAGATING, 12, 1, 0.8),
    ], ids=["mixed_nmax1", "mixed_nmax12", "abstract", "one_state"])
    def test_rows_and_amplitudes_match_the_per_state_loop(self, tmp_path, modes, nmax,
                                                          n_states, alpha_scale):
        doc = _vacuum_doc(np.random.default_rng(nmax + n_states), modes, nmax, n_states,
                          alpha_scale, vacuum_every=1 if n_states == 1 else 3)
        if n_states == 1:
            doc["states"][0]["alphas"][1] = [0.5, -0.25]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        want_csv, want_amps = _per_state_rows(doc)
        assert run("vacuum-energy", p, tmp_path) == 0
        assert (tmp_path / "vacuum.csv").read_text() == want_csv
        vacua = want_csv.count(",true,")
        assert n_states == 1 or 0 < vacua < n_states  # both kinds of state are met
        cfg, _ = load_config(p)
        layout = build_layout(cfg.modes, cfg.nmax)
        rows = coherent_rows(layout, cfg.states)
        assert rows.tobytes() == want_amps.tobytes()
        assert coherent_state(layout, cfg.states.rows(0, 1)).amplitudes.tobytes() \
            == rows[0].tobytes()

    def test_one_pass_reader_matches_per_state_parsing(self):
        # the whole list read at once gives the bits of each entry parsed on
        # its own, entry by entry, and normalised as one row
        doc = _vacuum_doc(np.random.default_rng(3), PROPAGATING, 4, 9, 0.3)
        doc["states"][2].pop("alphas")
        doc["states"][4]["weights"][1] = 2
        doc["states"][5]["weights"] = [1e-200, 0, [3e-201, -1e-200], 0]
        doc["states"][6]["weights"] = [1e300, [0, -1e300], 0, 1.0]
        modes = load_mode_set(doc["modes"])
        batch, labels = read_states(modes, doc["states"])
        for s, entry in enumerate(doc["states"]):
            weights, alphas = ([parse_complex(v) for v in entry.get(key, [0.0] * 4)]
                               for key in ("weights", "alphas"))
            want = CoherentBatch.make(modes, [weights], [alphas])
            assert batch.weights[s].tobytes() == want.weights[0].tobytes()
            assert batch.alphas[s].tobytes() == want.alphas[0].tobytes()
        assert labels == tuple(f"s{i}" for i in range(9))

    # entries the one-pass read of the former two-reader design could not
    # vouch for: the one reader gives what the per-state read then gave
    @pytest.mark.parametrize("entry, error", [
        (5, "states[3] must be an object"),
        ({"weights": [1, 1, 1, 1], "bogus": 0}, "unknown keys in states[3]: ['bogus']"),
        ({"weights": [1, 1, 1]},
         "bad states[3]: modes, weights and alphas must have equal length"),
        ({"weights": [1, 1, 1, True]},
         "bad states[3]: weights[3]: expected a finite number or [re, im] pair, got True"),
        ({"weights": [0, 0, 0, 0]}, "bad states[3]: all sector weights are zero"),
        ({"weights": (1, 1, 1, 1)}, None),
    ], ids=["5", "entry1", "entry2", "entry3", "entry4", "entry5"])
    def test_one_pass_reader_declines_what_it_cannot_vouch_for(self, entry, error):
        doc = _vacuum_doc(np.random.default_rng(4), PROPAGATING, 4, 3, 0.3)
        modes = load_mode_set(doc["modes"])
        if error is None:
            batch, _ = read_states(modes, [*doc["states"], entry])
            want, _ = read_states(modes, [{"weights": list(entry["weights"])}])
            assert batch.weights[3].tobytes() == want.weights[0].tobytes()
            return
        with pytest.raises(StateError) as exc:
            read_states(modes, [*doc["states"], entry])
        assert (str(exc.value), exc.value.index) == (error, 3)

    def test_states_are_built_in_one_batch(self, tmp_path, monkeypatch):
        # the per-state loop (coherent_state, vacuum_subspace_check and expect
        # per state) must not come back: none of them runs, the batch runs once
        import monofield

        calls = {"coherent_state": 0, "expect": 0, "vacuum_subspace_check": 0,
                 "coherent_rows": 0}
        for module in (monofield.fields, monofield.hilbert, monofield.emission):
            for name in calls:
                if hasattr(module, name):
                    original = getattr(module, name)

                    def counted(*args, _name=name, _original=original, **kwargs):
                        calls[_name] += 1
                        return _original(*args, **kwargs)
                    for owner in (monofield, monofield.cli, monofield.fields,
                                  monofield.hilbert, monofield.emission):
                        if getattr(owner, name, None) is original:
                            monkeypatch.setattr(owner, name, counted)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(_vacuum_doc(np.random.default_rng(5), PROPAGATING, 12, 50, 0.8)))
        assert run("vacuum-energy", p, tmp_path) == 0
        assert calls == {"coherent_state": 0, "expect": 0, "vacuum_subspace_check": 0,
                         "coherent_rows": 1}

    # two bad states, 1 and 3, of each kind: the first one is named, with the
    # line the state-by-state command printed
    @pytest.mark.parametrize("bad1, bad3, message", [
        (5, "x", "states[1] must be an object"),
        ({"weights": [1, 1], "alphas": [0, "x"]}, {"weights": [1, 1], "alphas": [True, 0]},
         "bad states[1]: alphas[1]: expected a finite number or [re, im] pair, got 'x'"),
        ({"weights": [1, 1], "alphas": [0, 1e200]}, {"weights": [1, 1], "alphas": [1e300, 0]},
         "state 'b1': |alpha|=1e+200 on mode 1 is too large: its mean photon number overflows"),
        ({"weights": [1, 1], "alphas": [0, 3.0]}, {"weights": [1, 1], "alphas": [4.0, 0]},
         "state 'b1': nmax=12 too small for |alpha|=3 on mode 1: tail mass 1.242e-01 > "
         "1.0e-10; nmax >= 34 required"),
        ({"weights": [1, 1], "alphas": [100.0, 0]}, {"weights": [1, 1], "alphas": [0, 200.0]},
         "state 'b1': no truncation below 10000 reaches tail mass 1e-10"),
        ({"weights": [0, 0]}, {"weights": [0.0, [0, 0]]},
         "bad states[1]: all sector weights are zero"),
        # squares that overflow are no fault: the row is normalised
        ({"weights": [1e308, 1e308]}, {"weights": [0, 0]},
         "bad states[3]: all sector weights are zero"),
        ({"weights": [1, 1], "alphas": [0, 3.0]}, 7, "states[3] must be an object"),
        ({"weights": [1, 1], "alphas": [0, 1e200]}, {"weights": [1, 1], "alphas": [0, "x"]},
         "bad states[3]: alphas[1]: expected a finite number or [re, im] pair, got 'x'"),
    ], ids=["non_object", "bad_alpha", "overflowing_alpha", "small_nmax", "hopeless",
            "zero_weights", "overflowing_weights", "load_before_build",
            "parse_before_build"])
    def test_first_bad_state_is_named(self, tmp_path, capsys, monkeypatch, bad1, bad3,
                                      message):
        import monofield

        built = []
        monkeypatch.setattr(monofield.cli, "coherent_rows",
                            lambda *args: built.append(1) or coherent_rows(*args))
        good = {"weights": [1.0, [0.0, 1.0]], "alphas": [0.5, [0.0, 0.3]]}
        states = [dict(good, label=f"s{i}") for i in range(5)]
        for i, bad in ((1, bad1), (3, bad3)):
            states[i] = dict(bad, label=f"b{i}") if isinstance(bad, dict) else bad
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"modes": PROPAGATING[:2], "nmax": 12, "states": states}))
        assert run("vacuum-energy", p, tmp_path) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        # a state that cannot be loaded is refused before any state is built
        assert built == ([1] if message.startswith("state ") else [])

    @pytest.mark.parametrize("block_bytes", [1, 3 * 16 * 4 * 13])
    def test_blocks_of_states_change_nothing(self, tmp_path, capsys, monkeypatch,
                                             block_bytes):
        # blocks of one and of three states: the same file, and an error in a
        # later block still names its own state
        import monofield

        doc = _vacuum_doc(np.random.default_rng(6), PROPAGATING, 12, 10, 0.8)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run("vacuum-energy", p, tmp_path / "whole") == 0
        monkeypatch.setattr(monofield.fields, "STATE_BLOCK_BYTES", block_bytes)
        blocks = []
        monkeypatch.setattr(monofield.cli, "coherent_rows",
                            lambda *args: blocks.append(len(args[1])) or coherent_rows(*args))
        assert run("vacuum-energy", p, tmp_path / "blocks") == 0
        assert blocks == ([1] * 10 if block_bytes == 1 else [3, 3, 3, 1])
        assert (tmp_path / "blocks" / "vacuum.csv").read_bytes() \
            == (tmp_path / "whole" / "vacuum.csv").read_bytes()
        doc["states"][7]["alphas"][2] = 3.0
        doc["states"][8]["alphas"][0] = 1e200
        p.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("vacuum-energy", p, tmp_path / "blocks") == 2
        assert capsys.readouterr().err.startswith(
            "config error: state 's7': nmax=12 too small for |alpha|=3 on mode 2: ")

    @pytest.mark.parametrize("weights", [[1e-160, 1e-160], [1e-165, 1e-165], [1e-200, 0]])
    def test_weights_whose_squares_underflow_run(self, tmp_path, weights):
        doc = {"modes": PROPAGATING[:2], "nmax": 2, "states": [{"weights": weights}]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert run("vacuum-energy", p, tmp_path) == 0
        cfg, _ = load_config(p)
        assert abs(np.linalg.norm(cfg.states.weights[0]) - 1.0) < 1e-15
