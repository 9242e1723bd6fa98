"""Timings of jkepler's polynomial layer, per family, written to BENCH_poly_layers.json.

    python3 tools/poly_layers.py --label NAME [--src PATH] [--out BENCH_poly_layers.json]

--src is the `src` directory of the checkout to measure (default: the one
next to this script), so a parent checkout and a change are measured by the
same code.  Every figure comes from a fresh interpreter that imports jkepler
from --src; timings are medians over REPEAT = 3 processes.  Per family
(gamma:3, h:3:R, h:3:C):

  poisson_s     `jk verify --suite poisson --trials 1 --format json`
  operators_s   `jk verify --suite operators --trials 1 --format json`
                (the default nu)

each timed inside the process around cli.main, so interpreter start and
imports are left out.  One end-to-end figure:

  exact_wall_s  wall_s of `bench/run.py --workload exact --seed 0 --seconds 15`
                from the checkout that holds --src

The result is merged into --out under --label with the host's core count
and the Python and numpy versions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAMILIES = ["gamma:3", "h:3:R", "h:3:C"]
SUITES = ["poisson", "operators"]
REPEAT = 3  # fresh processes per figure

_SUITE = """
import contextlib, io, sys, time
from jkepler import cli
argv = ["verify", "--suite", sys.argv[1], "--algebra", sys.argv[2], "--trials", "1",
        "--format", "json"]
t = time.perf_counter()
with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
    code = cli.main(argv)
elapsed = time.perf_counter() - t
assert code == 0, code
print(elapsed)
"""


def _python(src: Path, *args, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, *args], env=env, check=True, cwd=cwd,
                         capture_output=True, text=True)
    return out.stdout


def measure(src: Path) -> dict:
    families = {}
    for spec in FAMILIES:
        families[spec] = {f"{suite}_s": statistics.median(
            float(_python(src, "-c", _SUITE, suite, spec)) for _ in range(REPEAT))
            for suite in SUITES}
        print(spec, families[spec], file=sys.stderr)
    root = src.parent
    walls = []
    for _ in range(REPEAT):
        last = _python(src, "bench/run.py", "--workload", "exact", "--seed", "0",
                       "--seconds", "15", cwd=root).strip().splitlines()[-1]
        result = json.loads(last)
        assert result["correct"], result
        walls.append(result["metrics"]["wall_s"]["value"])
    print("exact wall_s", walls, file=sys.stderr)
    import numpy
    return {"host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                     "numpy": numpy.__version__},
            "repeat": REPEAT, "families": families,
            "exact_wall_s": statistics.median(walls), "exact_wall_s_runs": walls}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, default=HERE.parent / "src")
    ap.add_argument("--out", type=Path, default=HERE.parent / "BENCH_poly_layers.json")
    args = ap.parse_args(argv)
    result = json.loads(args.out.read_text()) if args.out.exists() else {}
    result.setdefault("script", "tools/poly_layers.py")
    result.setdefault("runs", {})[args.label] = measure(args.src.resolve())
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
