"""The benchmark's span tracer wraps monofield functions by name; renaming
one of them must fail here, not only when the benchmark runs."""

import importlib.util
from pathlib import Path

import monofield as mf
from monofield import hilbert
from monofield.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


def bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_records_layers_of_a_command(tmp_path):
    matmul = hilbert.Operator.__matmul__
    tracer = bench_tracer()
    tracer.install()
    try:
        rc = main(["verify-algebra", "--config", str(DATA / "config_algebra.json"),
                   "--out", str(tmp_path)])
        # verify-algebra multiplies no Operators, so the hilbert.matmul span
        # must resolve through a product of two block operators
        layout = mf.build_layout([mf.abstract_mode(1.0), mf.abstract_mode(2.0)], 2)
        a = mf.mode_annihilator(layout, 0)
        a @ a.dag()
    finally:
        tracer.uninstall()
    assert rc == 0
    names = {span[0] for span in tracer.spans}
    assert {"hilbert.matmul", "cli.write"} <= names
    assert hilbert.Operator.__matmul__ is matmul


def test_tracer_sees_the_first_order_state_of_the_emission_command(tmp_path):
    tracer = bench_tracer()
    tracer.install()
    try:
        rc = main(["emission", "--config", str(DATA / "config_emission.json"),
                   "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert {"emission.first_order", "dynamics.dyson"} <= {span[0] for span in tracer.spans}
    # the wrapped first argument of dyson_first_order is called
    assert tracer.counts["dynamics.dyson_integrand_evals"] > 0
