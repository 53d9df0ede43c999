"""Time one CLI command on one config, in process.

    python tools/time_commands.py COMMAND (--config PATH | --box MAX_INDEX
        | --bench-seed SEED | --named NAME) [--nmax N] [--rounds 10] [--tree DIR]

The config is a JSON file, a ``box`` of edge 2.0 at nmax 5 with the given
``max_index`` (1 gives 52 modes, 2 gives 248, 3 gives 684), the
``verify-algebra`` config that ``bench/inputs.py`` generates for a seed
(32 modes, nmax 5; ``--bench-seed 11`` is the ``algebra-32`` primary), or
any config of ``tools/compare_outputs.py`` by its file name without
``.json`` (``--named box-248-atom`` is the 248-mode box with the atom,
``--named bench-11-emission`` the ``emission-oracles`` primary).
``--nmax`` overrides the config's ``nmax``.

The script imports ``monofield`` from ``DIR/src`` (default: the tree this
script sits in), so one copy of it times any checkout.  It runs
``monofield.cli.main`` once untimed, then ``--rounds`` times, each into the
same temporary output directory, with stdout and stderr captured, and
prints the best and the median wall time of the timed rounds.  It also
prints the numpy and Python versions, the BLAS thread count (pinned to 1
through the BLAS environment variables before numpy is imported, as the
benchmark does), the CPU count and ``git rev-parse HEAD`` of DIR
(noting uncommitted changes under its ``src/``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = "1"


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", help="a monofield CLI command, e.g. verify-algebra")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="a JSON config file")
    source.add_argument("--box", type=int, metavar="MAX_INDEX",
                        help="a box of edge 2.0 with this max_index")
    source.add_argument("--bench-seed", type=int, metavar="SEED",
                        help="bench/inputs.py's verify-algebra config for this seed")
    source.add_argument("--named", metavar="NAME",
                        help="a config of tools/compare_outputs.py, e.g. box-248-atom")
    parser.add_argument("--nmax", type=int, help="override the config's nmax")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds (default 10)")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the checkout whose src/ is timed (default: this one)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def _config(args, workdir: Path) -> dict:
    if args.config is not None:
        doc = json.loads(args.config.read_text())
    elif args.box is not None:
        doc = {"box": {"edge": 2.0, "max_index": args.box}, "nmax": 5}
    elif args.named is not None:
        sys.path.insert(0, str(ROOT / "tools"))
        import compare_outputs

        paths = {path.stem: path for path in compare_outputs.write_configs(workdir / "named")}
        if args.named not in paths:
            raise SystemExit(f"time_commands.py: no config named {args.named!r}; "
                             f"the names are {', '.join(sorted(paths))}")
        doc = json.loads(paths[args.named].read_text())
    else:
        sys.path.insert(0, str(ROOT / "bench"))
        import inputs

        doc = inputs.algebra_inputs(args.bench_seed)["algebra"]
    if args.nmax is not None:
        doc["nmax"] = args.nmax
    return doc


def _revision(tree: Path) -> str:
    def git(*words):
        return subprocess.run(["git", "-C", str(tree), *words], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return "(not a git checkout)"
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + (" with uncommitted src/ changes" if dirty else "")


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import numpy as np
    from monofield import cli

    with tempfile.TemporaryDirectory() as tmp:
        doc = _config(args, Path(tmp))
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        argv = [args.command, "--config", str(config), "--out", str(Path(tmp) / "out")]
        times, codes = [], set()
        for round_ in range(args.rounds + 1):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                codes.add(cli.main(argv))
                elapsed = time.perf_counter() - start
            if round_:  # the first round is untimed
                times.append(elapsed)
    print(f"monofield {Path(cli.__file__).parent} at {_revision(args.tree)}")
    print(f"numpy {np.__version__}, Python {platform.python_version()}, "
          f"BLAS threads {BLAS_THREADS}, {os.cpu_count()} CPUs")
    source = args.config or (f"box max_index {args.box}" if args.box is not None
                             else f"config {args.named}" if args.named is not None
                             else f"bench seed {args.bench_seed}")
    print(f"{args.command} on {source}, nmax {doc.get('nmax')}: exit {sorted(codes)}")
    print(f"best {min(times) * 1e3:.2f} ms, median {statistics.median(times) * 1e3:.2f} ms "
          f"over {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
