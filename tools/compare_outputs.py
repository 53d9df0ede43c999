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
  writes 184 512 rows;
* two ``field-sweep`` grids: the 52-mode box at ``nmax`` 5 with 5 times x 4
  points (20 points, which ``field-sweep`` takes in chunks of 8), and the
  248-mode box at ``nmax`` 8 with 10 times x 12 points (120 points);
* ``tests/data/config_algebra.json`` with ``tolerances.algebra`` 1e-17, so
  that some of its relations fail;
* ``tests/data/config_emission.json`` with the edge cases of the stacked
  coupling sweep and the columnar ``emission.csv``: a 1e300 coupling first
  and one in the middle (refused by its phase), 12 couplings in a
  non-monotone order, ``times: [1e160]`` (the probability overflows) and
  ``times: []`` (a header-only table).

A config a command cannot use is still run: its exit code and message
are compared too.  Everything is written under a temporary directory.
The script compares the exit codes, stdout, stderr (with the tree path
masked) and every output file, prints each difference, and exits 1 if
there is any, else 0.  It also prints the ``wc -l`` line count of every
``src/monofield/*.py`` module in both trees, their total and the change.
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
    docs["sweep-52"] = sweep_config(1, 5, 5, 4, seed=52)
    docs["sweep-248"] = sweep_config(2, 8, 10, 12, seed=248)
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


def run(tree: Path, workdir: Path, config: Path, command: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command; its files go to
    ``workdir/out/<config>/<command>``, named relative to ``workdir`` so
    that messages naming them agree between trees."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    out = Path("out") / config.stem / command
    proc = subprocess.run(
        [sys.executable, "-m", "monofield.cli", command, "--config", str(config),
         "--out", str(out)],
        cwd=workdir, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr.replace(str(tree), "<tree>")


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
        workdirs = [tmp / "parent", tmp / "change"]
        for w in workdirs:
            w.mkdir()
        jobs = [(side, config, command) for side in (0, 1)
                for config in configs for command in COMMANDS]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(
                lambda job: run(trees[job[0]], workdirs[job[0]], job[1], job[2]), jobs))
        half = len(jobs) // 2
        differences = []
        for (_, config, command), old, new in zip(jobs, results[:half], results[half:]):
            for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    differences.append(f"{config.name} {command}: {what} differs:\n"
                                       f"  parent: {a!r}\n  change: {b!r}")
        old_files, new_files = (files(w / "out") for w in workdirs)
        for name in sorted(old_files.keys() | new_files.keys()):
            if name not in new_files or name not in old_files:
                side = "parent" if name in old_files else "change"
                differences.append(f"{name}: written only by the {side} tree")
            elif old_files[name] != new_files[name]:
                differences.append(f"{name}: contents differ")
    for line in differences:
        print(line)
    codes = Counter(code for code, _, _ in results[:half])
    print(f"{half} runs per tree (parent exit codes {dict(sorted(codes.items()))}), "
          f"{len(old_files)} parent files, {len(new_files)} change files: "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
