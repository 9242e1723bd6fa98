"""Timings of jkepler's TKK layers, per family, written to BENCH_tkk_layers.json.

    python3 tools/tkk_layers.py --label NAME [--src PATH] [--out BENCH_tkk_layers.json]

--src is the `src` directory of the checkout to measure (default: the one
next to this script), so a parent checkout and a change are measured by the
same code.  Every figure comes from a fresh interpreter that imports jkepler
from --src; timings are medians over REPEAT = 3 processes.  Per family
(gamma:3, h:3:R, h:3:C, h:3:H, h:3:O):

  span_build_s    conformal._str_span_exact on a new algebra (the exact
                  str(V) span with its certificate)
  dim_str_s       conformal.dim_str on a new algebra
  co_bracket_s    16 co_bracket calls on random CoElements (seed 1), the
                  span already built

and two end-to-end figures:

  info_h3O_peak_rss_mb   peak RSS of a process that runs
                         cli.info_table(make_algebra("h:3:O"))
  tkk_h3O_wall_s         wall time of `jk verify --suite tkk --algebra h:3:O
                         --trials 1`, process start to exit

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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAMILIES = ["gamma:3", "h:3:R", "h:3:C", "h:3:H", "h:3:O"]
REPEAT = 3  # fresh processes per figure

_LAYERS = """
import sys, time, numpy as np
from jkepler.algebra import make_algebra
from jkepler import conformal
spec = sys.argv[1]
t = time.perf_counter(); conformal._str_span_exact(make_algebra(spec))
span = time.perf_counter() - t
t = time.perf_counter(); conformal.dim_str(make_algebra(spec))
dim = time.perf_counter() - t
alg = make_algebra(spec)
conformal._str_span_exact(alg)
rng = np.random.default_rng(1)
pairs = [(conformal.random_co_element(alg, rng), conformal.random_co_element(alg, rng))
         for _ in range(16)]
t = time.perf_counter()
for a, b in pairs:
    conformal.co_bracket(a, b)
print(span, dim, time.perf_counter() - t)
"""

_INFO_RSS = """
import resource
from jkepler.algebra import make_algebra
from jkepler.cli import info_table
info_table(make_algebra("h:3:O"))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _python(src: Path, *args) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, *args], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout


def measure(src: Path) -> dict:
    families = {}
    for spec in FAMILIES:
        runs = [[float(x) for x in _python(src, "-c", _LAYERS, spec).split()]
                for _ in range(REPEAT)]
        families[spec] = {name: statistics.median(r[i] for r in runs)
                          for i, name in enumerate(("span_build_s", "dim_str_s", "co_bracket_s"))}
        print(spec, families[spec], file=sys.stderr)
    rss = statistics.median(float(_python(src, "-c", _INFO_RSS)) for _ in range(REPEAT))
    walls = []
    for _ in range(REPEAT):
        t = time.perf_counter()
        _python(src, "-m", "jkepler.cli", "verify", "--suite", "tkk", "--algebra", "h:3:O",
                "--trials", "1", "--format", "json")
        walls.append(time.perf_counter() - t)
    print("info rss", rss, "tkk h:3:O", walls, file=sys.stderr)
    import numpy
    return {"host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                     "numpy": numpy.__version__},
            "repeat": REPEAT, "families": families,
            "info_h3O_peak_rss_mb": rss, "tkk_h3O_wall_s": statistics.median(walls),
            "tkk_h3O_wall_s_runs": walls}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, default=HERE.parent / "src")
    ap.add_argument("--out", type=Path, default=HERE.parent / "BENCH_tkk_layers.json")
    args = ap.parse_args(argv)
    result = json.loads(args.out.read_text()) if args.out.exists() else {}
    result.setdefault("script", "tools/tkk_layers.py")
    result.setdefault("runs", {})[args.label] = measure(args.src.resolve())
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
