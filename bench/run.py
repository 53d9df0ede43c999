#!/usr/bin/env python3
"""monofield benchmark: one workload per run, checked against independent
computations.

    python3 bench/run.py --workload algebra-32 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  With ``--trace 0`` whole passes of the workload repeat for about
``--seconds`` (at least three) and the end-to-end metrics are medians over
passes, in seconds calibrated against a reference kernel timed between
the stages of a pass (see ``reference_kernel``).  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from
the traced ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the metric names
and units are those of BENCHMARK.json.
"""

import os

# Pinned before numpy is first imported, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckFailed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_PROBES = 5
MIN_PASSES = 3
# Nominal time of reference_kernel(), about its median on the 2-core machine
# the benchmark was tuned on; end-to-end times are reported in seconds of a
# machine on which the kernel takes this long.
REFERENCE_S = 0.2

# A fresh interpreter that imports the program and parses the workload's configs.
PROBE = ("import sys\n"
         "from monofield.cli import load_config\n"
         "for p in sys.argv[1:]:\n"
         "    load_config(p)\n")


class Tally:
    """Operations attempted and failed, and check results, over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []


def reference_kernel() -> float:
    """Seconds for a fixed mix of the work the program does (dense complex
    products, large-array arithmetic, interpreter loops); independent of
    monofield.  The shared machine's speed drifts by tens of percent over
    minutes, and this measures it next to every pass."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(192, 192)) + 1j * rng.normal(size=(192, 192))
    b = rng.normal(size=(312, 312)) + 1j * rng.normal(size=(312, 312))
    start = time.perf_counter()
    for _ in range(60):
        a = a @ a
        a /= np.abs(a).max()
    total = np.zeros_like(b)
    for k in range(60):
        total += (0.5 + 0.1j * k) * b + (0.5 - 0.1j * k) * b.conj().T
    counts = {}
    for i in range(300000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - start


def calibrated(samples: list[float], kernel: list[float]) -> list[float]:
    """Scale each sample by REFERENCE_S over the mean of the kernel times
    measured just before and just after it."""
    return [x * REFERENCE_S / (0.5 * (before + after))
            for x, before, after in zip(samples, kernel, kernel[1:])]


def run_pass(workload, tally: Tally, tracer=None, after_stage=None) -> dict[str, float]:
    """Run every operation of the workload once; returns seconds per stage,
    in the order the stages ran, checks excluded.  ``after_stage`` is called
    untimed at the end of every stage."""
    seconds = {}
    for i, op in enumerate(workload.ops):
        if after_stage and 0 < i and op.stage != workload.ops[i - 1].stage:
            after_stage()
        span = tracer.begin(f"op.{op.name}") if tracer else None
        start = time.perf_counter()
        try:
            ok = op.run()
        except Exception:  # a crash is a failed operation; keep measuring
            ok = False
            tally.problems.append(f"crash {op.name}: {traceback.format_exc(limit=3)}")
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end(span)
        seconds[op.stage] = seconds.get(op.stage, 0.0) + elapsed
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            if op.stage != "malformed":
                tally.problems.append(f"failed {op.name}")
            continue
        if op.check is not None:
            try:
                op.check()
            except CheckFailed as exc:
                tally.correct = False
                tally.problems.append(f"check {op.name}: {exc}")
    if after_stage:
        after_stage()
    return seconds


def setup_seconds(configs: list[Path]) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing monofield and parsing
    configs, and the reference-kernel times around them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out, kernel = [], [reference_kernel()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, configs)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        out.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-800:]}")
        kernel.append(reference_kernel())
    return out, kernel


def measure_untraced(workload, tally: Tally, seconds: float) -> dict[str, float]:
    """Whole passes for about ``seconds``, the reference kernel timed before
    the first stage and after every stage.  A stage is calibrated by the
    kernel times around it, a pass ("run") is the sum of its stages."""
    start = time.perf_counter()
    kernel = [reference_kernel()]
    raw, scaled = defaultdict(list), defaultdict(list)
    while True:
        began = time.perf_counter()
        stages = run_pass(workload, tally,
                          after_stage=lambda: kernel.append(reference_kernel()))
        around = kernel[-len(stages) - 1:]
        for stage, value in zip(stages, calibrated(list(stages.values()), around)):
            raw[stage].append(stages[stage])
            scaled[stage].append(value)
        raw["run"].append(sum(stages.values()))
        scaled["run"].append(sum(scaled[stage][-1] for stage in stages))
        last = time.perf_counter() - began
        if len(raw["run"]) >= MIN_PASSES and time.perf_counter() - start + last > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload.name}: reference kernel seconds: {kernel}", flush=True)
    out = {"peak_rss_mb": peak_rss_mb}
    for stage in ("run", "primary", "secondary"):
        print(f"{workload.name}: {stage} seconds of {len(raw[stage])} passes: {raw[stage]}",
              flush=True)
        out[f"{stage}_s"] = statistics.median(scaled[stage])
        out[f"{stage}_raw_s"] = statistics.median(raw[stage])
    return out


def measure_traced(workload, tally: Tally, seconds: float) -> dict[str, float]:
    from tracing import Tracer

    start = time.perf_counter()
    run_pass(workload, tally)  # warm-up, so the first timed pass is not the cold one
    untraced, traced, layers = [], [], []
    while True:
        began = time.perf_counter()
        tracer = Tracer()
        # alternate which of the pair runs first, so drift does not bias the overhead
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_trace:
                untraced.append(sum(run_pass(workload, tally).values()))
                continue
            tracer.install()
            try:
                traced.append(sum(run_pass(workload, tally, tracer).values()))
            finally:
                tracer.uninstall()
        layers.append(tracer.layer_metrics())
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            break
    print(f"{workload.name}: {len(traced)} traced and {len(untraced)} untraced passes, "
          f"{len(tracer.spans)} spans a traced pass", flush=True)
    with open(WORK / f"trace-{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "operation"],
                   "spans": tracer.spans}, fh)
    # counts repeat exactly, so they stay whole numbers
    out = {key: (statistics.median_low if isinstance(value, int) else statistics.median)(
        [run[key] for run in layers]) for key, value in layers[0].items()}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="algebra-32, box-fields or emission-oracles")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "monofield" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: {ROOT} is not a monofield checkout (src/monofield and "
              "BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import monofield
    if Path(monofield.__file__).resolve().parent != (SRC / "monofield").resolve():
        print(f"bench: imported monofield from {monofield.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import scipy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    print(f"bench: workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"numpy {np.__version__} scipy {scipy.__version__} "
          f"BLAS threads {BLAS_THREADS} nproc {os.cpu_count()}", flush=True)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        if args.trace:
            values = measure_traced(workload, tally, args.seconds)
            wanted = spec["per_layer"]
        else:
            setup, kernel = setup_seconds(workload.configs)
            values = measure_untraced(workload, tally, args.seconds)
            values["setup_s"] = statistics.median(calibrated(setup, kernel))
            values["setup_raw_s"] = statistics.median(setup)
            values[workload.primary] = values["primary_s"]
            values[workload.secondary] = values["secondary_s"]
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in dict.fromkeys(tally.problems):
        print(f"bench: {problem}", file=sys.stderr)
    for key in sorted(values):
        print(f"  {key:40s} {values[key]!r}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
