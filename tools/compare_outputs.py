"""Compare the CLI outputs of two source trees byte for byte.

    python tools/compare_outputs.py PARENT_TREE [CHANGE_TREE]

CHANGE_TREE defaults to the tree this script sits in.  A parent tree is
an unpacked commit, for example

    git archive <commit> | tar -x -C <dir>

All five commands run on every config below, once per tree, each run in a
fresh interpreter with ``PYTHONPATH=<tree>/src`` and
``OPENBLAS_NUM_THREADS=1``:

* ``tests/data/config*.json``;
* the configs ``bench/inputs.py`` generates for seeds 11 and 3, and its
  ``MALFORMED`` configs;
* the configs of ``tests/data/state_faults.json``: a ``tests/data`` config
  whose "states" or "coherent" section is replaced by the case's raw text;
* the 52-mode box (``max_index`` 1) and the 248-mode box (``max_index`` 2)
  with the atom, both at ``nmax`` 3; the larger one runs the atom's
  coupling row and coupling blocks at the largest mode count;
* the 248-mode box (``max_index`` 2, ``nmax`` 5), where ``verify-algebra``
  writes 184 512 rows, and the 684-mode box (``max_index`` 3, ``nmax`` 2),
  where it checks its largest set of mode pairs and writes 1 403 568 rows
  (45 MB);
* two ``field-sweep`` grids: the 52-mode box at ``nmax`` 5 with 5 times x 4
  points (20 points, which ``field_averages`` takes in chunks of 8), and the
  248-mode box at ``nmax`` 8 with 10 times x 12 points (120 points);
* the 52-mode grid with 3 times x 4 points whose first overflowing phase
  omega*t - kappa.x is at grid point 10, in the second chunk: only the sum
  of the time's and the point's finite phases overflows, so the refusal
  names both;
* ``tests/data/config_algebra.json`` with ``tolerances.algebra`` 1e-17, so
  that some of its relations fail;
* ``tests/data/config_emission.json`` with the edge cases of the stacked
  coupling sweep and the columnar ``emission.csv``: a 1e300 coupling first
  and one in the middle (refused by its phase), 12 couplings in a
  non-monotone order, ``times: [1e160]`` (the probability overflows) and
  ``times: []`` (a header-only table);
* twins of ``tests/data/config_emission.json`` and ``config_field.json``
  whose wavevector zeros are ``-0.0``: their mode tuples equal their
  mates', which run before them;
* ``tests/data`` configs ``config_algebra``, ``config_vac``,
  ``config_field``, ``config_emission`` and ``config_compare`` at ``nmax``
  2**40, a layout too large for any array: every command must refuse it
  with a config error (every allocation such a run could reach is at
  least 8 TiB, so it fails at once).

That is 76 configs, so 380 runs per tree and pass.  A config a command
cannot use is still run: its exit code and message are compared too.  Everything is written under a temporary directory.
The script compares the exit codes, stdout, stderr (with the tree path
masked) and every output file between the trees.

A second, in-process pass runs every (command, config) pair of the same
list, in the same order, through ``monofield.cli.main`` in one
interpreter per tree, and compares each run with that tree's
fresh-interpreter run: state one run leaves behind (a cache, a warning
filter) must not change a later run's output, since the benchmark runs
its commands in one process too.  Before that pass, every file the tree's
fresh runs wrote is put where the in-process run writes it, holding the
same bytes followed by a stale tail (``STALE_TAIL``).  So each in-process
run overwrites a longer file, as a rerun into the same ``--out`` does, and
its comparison with the fresh run checks byte for byte that every writer
leaves its new text and nothing of the old.

The script prints each difference, and exits 1 if there is any, else 0.
It also prints the ``wc -l`` line count of every ``src/monofield/*.py``
module in both trees, their total and the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ["verify-algebra", "vacuum-energy", "field-sweep", "emission", "compare-standard"]
SEEDS = [11, 3]
BOX_WITH_ATOM = {
    "box": {"edge": 2.0, "max_index": 1}, "nmax": 3,
    "atom": {"omega0": 1.0, "dipole": 0.02, "direction": [1.0, [0.0, 0.3], 0.2]},
    "times": [0.5, 1.0],
    "emission_initial": [{"mode": 0, "n": 0, "amp": 1.0},
                         {"mode": 7, "n": 1, "amp": [0.0, 0.5]},
                         {"mode": 30, "n": 2, "amp": -0.3}],
    "coherent": {"weights": [1.0] * 52, "alphas": [0.1] * 52},
    "states": [{"label": "vacuum", "weights": [1.0] * 52}],
    "points": [[0.1, 0.2, 0.3]],
}
BOX_248_WITH_ATOM = {
    **BOX_WITH_ATOM, "box": {"edge": 2.0, "max_index": 2},
    "emission_initial": [*BOX_WITH_ATOM["emission_initial"],
                         {"mode": 201, "n": 1, "amp": [0.2, -0.4]}],
    "coherent": {"weights": [1.0] * 248, "alphas": [0.05] * 248},
    "states": [{"label": "vacuum", "weights": [1.0] * 248}],
}
BOX_248 = {"box": {"edge": 2.0, "max_index": 2}, "nmax": 5}
BOX_684 = {"box": {"edge": 2.0, "max_index": 3}, "nmax": 2}
# what the in-process pass finds after each file a fresh run wrote
STALE_TAIL = b"\nSTALE\n" * 64
# the in-process pass: read [command, config, out] jobs from stdin, run
# each through cli.main, print one JSON list of [code, stdout, stderr]
IN_PROCESS = """
import contextlib, io, json, sys, traceback
from monofield import cli
results = []
for command, config, out in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([command, "--config", config, "--out", out])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    results.append([code, stdout.getvalue(), stderr.getvalue()])
json.dump(results, sys.stdout)
"""


def sweep_config(max_index: int, nmax: int, n_times: int, n_points: int, seed: int) -> dict:
    """A field-sweep config on the box: n_times x n_points grid points, times
    below zero included, and a coherent state that nmax truncates."""
    import numpy as np

    rng = np.random.default_rng(seed)
    count = 2 * ((2 * max_index + 1) ** 3 - 1)
    return {"box": {"edge": 2.0, "max_index": max_index}, "nmax": nmax,
            "coherent": {"weights": rng.normal(size=(count, 2)).tolist(),
                         "alphas": (0.05 * rng.normal(size=(count, 2))).tolist()},
            "times": rng.uniform(-1.0, 2.0, size=n_times).tolist(),
            "points": rng.uniform(-2.0, 2.0, size=(n_points, 3)).tolist()}


def write_configs(directory: Path) -> list[Path]:
    """Every config of the comparison, written into ``directory``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs
    import numpy as np

    docs = {}
    for seed in SEEDS:
        for group in (inputs.algebra_inputs, inputs.box_inputs, inputs.emission_inputs):
            for name, doc in group(seed).items():
                docs[f"bench-{seed}-{name}"] = doc
    for name, _, doc in inputs.MALFORMED:
        docs[f"malformed-{name}"] = doc
    docs["box-atom"] = BOX_WITH_ATOM
    docs["box-248-atom"] = BOX_248_WITH_ATOM
    docs["box-248"] = BOX_248
    docs["box-684"] = BOX_684
    docs["sweep-52"] = sweep_config(1, 5, 5, 4, seed=52)
    docs["sweep-248"] = sweep_config(2, 8, 10, 12, seed=248)
    docs["sweep-52-phase-overflow"] = {
        **sweep_config(1, 5, 3, 4, seed=53), "times": [-0.5, 0.7, 3e307],
        "points": [[0.0, 0.0, 0.0], [0.3, 0.1, -0.2], [3e307, 0.0, 0.0], [1.0, 1.0, 1.0]]}
    data = ROOT / "tests" / "data"
    docs["algebra-tight"] = dict(json.loads((data / "config_algebra.json").read_text()),
                                 tolerances={"algebra": 1e-17})
    emission = json.loads((data / "config_emission.json").read_text())
    twelve = np.logspace(-4.0, -0.5, 12)[[3, 0, 7, 1, 11, 2, 9, 4, 10, 5, 8, 6]].tolist()
    for name, change in {
            "coupling-huge-first": {"couplings": [1e300, 0.001, 0.002]},
            "coupling-huge-middle": {"couplings": [0.001, 1e300, 0.002]},
            "couplings-12": {"couplings": twelve},
            "probability-overflow": {"times": [1e160]},
            "no-times": {"times": []}}.items():
        docs[f"emission-{name}"] = {**emission, **change}
    for name in ("config_emission", "config_field"):
        doc = json.loads((data / f"{name}.json").read_text())
        doc["modes"] = [{**m, "kappa": [-0.0 if x == 0 else x for x in m["kappa"]]}
                        for m in doc["modes"]]
        docs[f"negative-zero-{name}"] = doc
    for name in ("config_algebra", "config_vac", "config_field", "config_emission",
                 "config_compare"):
        docs[f"huge-nmax-{name}"] = dict(json.loads((data / f"{name}.json").read_text()),
                                         nmax=2 ** 40)
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    for case in json.loads((data / "state_faults.json").read_text(encoding="utf-8")):
        # the section as raw text: it may hold numbers json.dumps cannot write
        doc = json.loads((data / case["base"]).read_text(encoding="utf-8"))
        doc.pop(case["section"])
        texts[f"fault-{case['id']}"] = \
            json.dumps(doc)[:-1] + f', "{case["section"]}": {case["value"]}}}'
    directory.mkdir(parents=True)
    paths = []
    for source in sorted(data.glob("config*.json")):
        paths.append(directory / source.name)
        paths[-1].write_bytes(source.read_bytes())
    for name, text in texts.items():
        paths.append(directory / f"{name}.json")
        paths[-1].write_text(text, encoding="utf-8")
    return paths


def tree_env(tree: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                PYTHONDONTWRITEBYTECODE="1")


def out_dir(config: Path, command: str) -> str:
    """Where one run writes, relative to its working directory, so that
    messages naming it agree between trees and passes."""
    return str(Path("out") / config.stem / command)


def run(tree: Path, workdir: Path, config: Path, command: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command in a fresh interpreter;
    its files go to ``workdir/out/<config>/<command>``."""
    proc = subprocess.run(
        [sys.executable, "-m", "monofield.cli", command, "--config", str(config),
         "--out", out_dir(config, command)],
        cwd=workdir, env=tree_env(tree), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr.replace(str(tree), "<tree>")


def run_in_process(tree: Path, workdir: Path,
                   pairs: list[tuple[Path, str]]) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of every (config, command) pair, run in
    order by one interpreter through ``cli.main``; files go where
    :func:`run` puts them, under ``workdir``."""
    todo = [[command, str(config), out_dir(config, command)] for config, command in pairs]
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS], input=json.dumps(todo),
                          cwd=workdir, env=tree_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"in-process pass on {tree} failed:\n{proc.stderr}")
    return [(code, out, err.replace(str(tree), "<tree>"))
            for code, out, err in json.loads(proc.stdout)]


def compare_runs(labels: tuple[str, str], pairs: list[tuple[Path, str]], old: list, new: list,
                 old_dir: Path, new_dir: Path) -> list[str]:
    """Each difference between two passes over the (config, command)
    ``pairs``: exit codes, stdout, stderr, and the files under
    ``old_dir/out`` and ``new_dir/out``."""
    differences = []
    for (config, command), a_run, b_run in zip(pairs, old, new):
        for what, a, b in zip(("exit code", "stdout", "stderr"), a_run, b_run):
            if a != b:
                differences.append(f"{config.name} {command}: {what} differs:\n"
                                   f"  {labels[0]}: {a!r}\n  {labels[1]}: {b!r}")
    old_files, new_files = files(old_dir / "out"), files(new_dir / "out")
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files or name not in old_files:
            side = labels[0] if name in old_files else labels[1]
            differences.append(f"{name}: written only by the {side}")
        elif old_files[name] != new_files[name]:
            differences.append(f"{name}: contents differ between {labels[0]} and {labels[1]}")
    return differences


def seed_stale(fresh_dir: Path, target_dir: Path) -> None:
    """Write every file under ``fresh_dir`` at the same place under
    ``target_dir``, followed by :data:`STALE_TAIL`."""
    for name, data in files(fresh_dir).items():
        path = target_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data + STALE_TAIL)


def files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def line_counts(tree: Path) -> dict[str, int]:
    """Lines (newlines, as ``wc -l`` counts them) of each ``src/monofield/*.py``."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((tree / "src" / "monofield").glob("*.py"))}


def print_line_counts(trees: list[Path]) -> None:
    """One row per module and a total: parent lines, change lines, difference."""
    old, new = (line_counts(tree) for tree in trees)
    rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(old.keys() | new.keys())]
    rows.append(("total", sum(old.values()), sum(new.values())))
    print(f"{'src/monofield':<16}{'parent':>8}{'change':>8}{'diff':>8}")
    for name, a, b in rows:
        print(f"{name:<16}{a:>8}{b:>8}{b - a:>+8}")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv] + [ROOT] * (2 - len(argv))
    print_line_counts(trees)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        configs = write_configs(tmp / "configs")
        sides = ("parent", "change")
        workdirs = [tmp / side for side in sides]
        in_process_dirs = [tmp / f"{side}-in-process" for side in sides]
        for w in workdirs + in_process_dirs:
            w.mkdir()
        pairs = [(config, command) for config in configs for command in COMMANDS]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(
                lambda job: run(trees[job[0]], workdirs[job[0]], *job[1]),
                [(side, pair) for side in (0, 1) for pair in pairs]))
            for side in (0, 1):
                seed_stale(workdirs[side] / "out", in_process_dirs[side] / "out")
            in_process = list(pool.map(
                lambda side: run_in_process(trees[side], in_process_dirs[side], pairs), (0, 1)))
        fresh = [results[:len(pairs)], results[len(pairs):]]
        differences = compare_runs(sides, pairs, *fresh, *workdirs)
        for side, label in enumerate(sides):
            differences += compare_runs(
                (f"{label} fresh", f"{label} in-process"), pairs,
                fresh[side], in_process[side], workdirs[side], in_process_dirs[side])
        counts = [len(files(w / "out")) for w in workdirs]
    for line in differences:
        print(line)
    codes = Counter(code for code, _, _ in fresh[0])
    print(f"{len(pairs)} runs per tree and pass (parent exit codes {dict(sorted(codes.items()))}), "
          f"{counts[0]} parent files, {counts[1]} change files: "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
