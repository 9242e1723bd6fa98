"""Timings of jkepler's layers, one SET per BENCH_*.json file.

    python3 tools/layers.py SET --label NAME [--src PATH] [--out FILE]

SET is poly, tkk or cone.  --src is the `src` directory of the checkout to
measure (default: the one next to this script), so a parent checkout and a
change are measured by the same code.  Every figure comes from a fresh
interpreter that imports jkepler from --src.  The result is merged into --out
(default: the set's BENCH file next to this script) under --label, with the
set's REPEAT and the host's core count and Python, numpy and scipy versions.

poly -> BENCH_poly_layers.json.  Medians over REPEAT = 3 processes.  Per
family (gamma:3, h:3:R, h:3:C, h:3:H):

  poisson_s     `jk verify --suite poisson --trials 1 --format json`
  operators_s   `jk verify --suite operators --trials 1 --format json`
                (the default nu)
  jordan_s      `jk verify --suite jordan --trials 5 --format json`, as the
                exact workload's jordan ops run it
  relations_s   weyl.verify_tkk_ops at the default nu = delta/2, trials 1,
                seed 6: the six operator relation families alone
  poisson_relations_s
                phase.verify_poisson_tkk, trials 1, seed 6: the six Poisson
                relation families alone
  grading_s     the H_e grading checks of levels 0-4 at the default nu
                (weyl.he_grading_checks, or the per-degree
                weyl.he_grading_check of older checkouts)
  lowest_weight_s
                weyl.lowest_weight_check at the default nu (older checkouts
                take a seed, left at its default)

each timed inside the process (around cli.main, or the check on an algebra
built before the clock starts, a new one for each check), so interpreter
start and imports are left out.  Four end-to-end figures:

  exact_wall_s               wall_s of `bench/run.py --workload exact --seed 0
                             --seconds 15` from the checkout that holds --src
  operators_h3O_wall_s       wall time of `jk verify --suite operators
                             --algebra h:3:O --trials 1`, process start to exit
  operators_h3O_peak_rss_mb  peak RSS of that process
  poisson_h3O_wall_s         wall time of `jk verify --suite poisson
                             --algebra h:3:O --trials 1`, process start to
                             exit: median over REPEAT processes, each run in
                             poisson_h3O_wall_s_runs

The operators figures come from one process, not a median.  With the
relations on the x-linear bracket, one conjugation of H_e for the grading
checks and the vacuum read by one contraction per generator, that run takes
about 0.5 s on a 2-core VM, interpreter start included; through the WeylOp
commutator it took about 90 s and 2 GB.

tkk -> BENCH_tkk_layers.json.  Medians over REPEAT = 3 processes.  Per
family (gamma:3, h:3:R, h:3:C, h:3:H, h:3:O):

  span_build_s    conformal._str_span_exact on a new algebra (the exact
                  str(V) span with its certificate)
  dim_str_s       conformal.dim_str on a new algebra
  table_build_s   conformal.structure_constants, the span already built
  co_bracket_s    16 co_bracket calls on random CoElements (seed 1), the
                  span and the table already built

and two end-to-end figures:

  info_h3O_peak_rss_mb   peak RSS of a process that runs
                         cli.info_table(make_algebra("h:3:O"))
  tkk_h3O_wall_s         wall time of `jk verify --suite tkk --algebra h:3:O
                         --trials 1`, process start to exit

cone -> BENCH_cone_threads.json.  One process imports this checkout's
bench/workloads.py as well, with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS set to the usable core count, as bench/run.py sets them.  It
takes the 28 ops of the cone-spectrum workload at the benchmark's seed 0,
with seed-derived op seeds: 18 `row` ops (one row of `jk spectrum
--degeneracies`: gamma:3 at nu = 1, levels 0-9, and h:3:R at nu = 1/2, levels
0-7) and 10 `verify` ops (`cone` and `measure` on gamma:3, h:3:R, h:3:C,
h:3:H, h:3:O, trials 3).  For each op it runs it once to warm the caches and
then REPEAT = 15 times.  Per op it records:

  median_s, q1_s, q3_s   median and quartiles of the op's time: for a row,
                         bench/workloads.execute (make_algebra, the energy
                         and weyl.restriction_degeneracy); for a verify op,
                         cli.run plus the JSON emit, as
                         bench/workloads.verify_report
  degeneracy             a row's degeneracy, which the benchmark holds to
                         its closed form
  digest                 a verify op's sha256 of its JSON report with
                         wall_time_ms zeroed, the digest the benchmark pins

and total_median_s, the sum of the verify ops' medians, and
rows_total_median_s, that of the rows.
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
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))

_SUITE = """
import contextlib, io, sys, time
from jkepler import cli
argv = ["verify", "--suite", sys.argv[1], "--algebra", sys.argv[2], "--trials", sys.argv[3],
        "--format", "json"]
t = time.perf_counter()
with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
    code = cli.main(argv)
elapsed = time.perf_counter() - t
assert code == 0, code
print(elapsed)
"""

_RELATIONS = """
import sys, time
from fractions import Fraction
from jkepler import algebra, phase, weyl
alg = algebra.make_algebra(sys.argv[1])
for run in (lambda: weyl.verify_tkk_ops(alg, Fraction(alg.delta, 2), trials=1, seed=6),
            lambda: phase.verify_poisson_tkk(alg, trials=1, seed=6)):
    t = time.perf_counter()
    checks = run()
    elapsed = time.perf_counter() - t
    assert all(c["status"] == "pass" for c in checks), checks
    print(elapsed)
"""

_CHECKS = """
import sys, time
from fractions import Fraction
from jkepler import algebra, weyl
# checkouts that predate he_grading_checks have the per-degree he_grading_check
grading = getattr(weyl, "he_grading_checks", None) or (
    lambda alg, nu, levels: [getattr(weyl, "he_grading_check")(alg, nu, i) for i in levels])
for run in (lambda alg, nu: grading(alg, nu, range(5)),
            lambda alg, nu: [weyl.lowest_weight_check(alg, nu)]):
    alg = algebra.make_algebra(sys.argv[1])
    nu = Fraction(alg.delta, 2)
    t = time.perf_counter()
    checks = run(alg, nu)
    elapsed = time.perf_counter() - t
    assert all(c["status"] == "pass" for c in checks), checks
    print(elapsed)
"""

_OPERATORS_RSS = """
import contextlib, io, resource
from jkepler import cli
argv = ["verify", "--suite", "operators", "--algebra", "h:3:O", "--trials", "1",
        "--format", "json"]
with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
    code = cli.main(argv)
assert code == 0, code
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

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
t = time.perf_counter(); conformal.structure_constants(alg)
table = time.perf_counter() - t
rng = np.random.default_rng(1)
pairs = [(conformal.random_co_element(alg, rng), conformal.random_co_element(alg, rng))
         for _ in range(16)]
t = time.perf_counter()
for a, b in pairs:
    conformal.co_bracket(a, b)
print(span, dim, table, time.perf_counter() - t)
"""

_INFO_RSS = """
import resource
from jkepler.algebra import make_algebra
from jkepler.cli import info_table
info_table(make_algebra("h:3:O"))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

_OPS = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import workloads
repeat, expected = int(sys.argv[2]), workloads.load_expected()
out = {}
for op in workloads.build_ops("cone-spectrum", 0):
    if op.kind == "row":
        run = lambda: {"degeneracy": workloads.execute(op, expected).value}
    else:
        run = lambda: {"digest": workloads.verify_report(op)[1]}
    run()
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        got = run()
        times.append(time.perf_counter() - t)
    q1, med, q3 = statistics.quantiles(times, n=4)
    out[op.key] = {"median_s": med, "q1_s": q1, "q3_s": q3, **got}
    print(op.key, round(med, 4), got, file=sys.stderr)
print(json.dumps(out))
"""


def _python(src: Path, *args, cwd=None, env=None) -> str:
    """stdout of a fresh interpreter that imports jkepler from src."""
    env = dict(os.environ, PYTHONPATH=str(src), **(env or {}))
    return subprocess.run([sys.executable, *args], env=env, check=True, cwd=cwd,
                          stdout=subprocess.PIPE, text=True).stdout


def measure_poly(src: Path, repeat: int) -> dict:
    families = {}
    for spec in ("gamma:3", "h:3:R", "h:3:C", "h:3:H"):
        families[spec] = {f"{suite}_s": statistics.median(
            float(_python(src, "-c", _SUITE, suite, spec, trials)) for _ in range(repeat))
            for suite, trials in (("poisson", "1"), ("operators", "1"), ("jordan", "5"))}
        runs = [_python(src, "-c", _RELATIONS, spec).split() for _ in range(repeat)]
        runs = [r + _python(src, "-c", _CHECKS, spec).split() for r in runs]
        for i, name in enumerate(("relations_s", "poisson_relations_s", "grading_s",
                                  "lowest_weight_s")):
            families[spec][name] = statistics.median(float(r[i]) for r in runs)
        print(spec, families[spec], file=sys.stderr)
    t = time.perf_counter()
    rss = float(_python(src, "-c", _OPERATORS_RSS))
    wall = time.perf_counter() - t
    print("operators h:3:O", wall, rss, file=sys.stderr)
    poisson_walls = []
    for _ in range(repeat):
        t = time.perf_counter()
        _python(src, "-m", "jkepler.cli", "verify", "--suite", "poisson", "--algebra", "h:3:O",
                "--trials", "1", "--format", "json")
        poisson_walls.append(time.perf_counter() - t)
    print("poisson h:3:O", poisson_walls, file=sys.stderr)
    walls = []
    for _ in range(repeat):
        last = _python(src, "bench/run.py", "--workload", "exact", "--seed", "0",
                       "--seconds", "15", cwd=src.parent).strip().splitlines()[-1]
        result = json.loads(last)
        assert result["correct"], result
        walls.append(result["metrics"]["wall_s"]["value"])
    print("exact wall_s", walls, file=sys.stderr)
    return {"families": families, "exact_wall_s": statistics.median(walls),
            "exact_wall_s_runs": walls, "operators_h3O_wall_s": wall,
            "operators_h3O_peak_rss_mb": rss,
            "poisson_h3O_wall_s": statistics.median(poisson_walls),
            "poisson_h3O_wall_s_runs": poisson_walls}


def measure_tkk(src: Path, repeat: int) -> dict:
    families = {}
    for spec in ("gamma:3", "h:3:R", "h:3:C", "h:3:H", "h:3:O"):
        runs = [[float(x) for x in _python(src, "-c", _LAYERS, spec).split()]
                for _ in range(repeat)]
        families[spec] = {name: statistics.median(r[i] for r in runs)
                          for i, name in enumerate(("span_build_s", "dim_str_s", "table_build_s",
                                                    "co_bracket_s"))}
        print(spec, families[spec], file=sys.stderr)
    rss = statistics.median(float(_python(src, "-c", _INFO_RSS)) for _ in range(repeat))
    walls = []
    for _ in range(repeat):
        t = time.perf_counter()
        _python(src, "-m", "jkepler.cli", "verify", "--suite", "tkk", "--algebra", "h:3:O",
                "--trials", "1", "--format", "json")
        walls.append(time.perf_counter() - t)
    print("info rss", rss, "tkk h:3:O", walls, file=sys.stderr)
    return {"families": families, "info_h3O_peak_rss_mb": rss,
            "tkk_h3O_wall_s": statistics.median(walls), "tkk_h3O_wall_s_runs": walls}


def measure_cone(src: Path, repeat: int) -> dict:
    threads = {var: str(NPROC) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
    ops = json.loads(_python(src, "-c", _OPS, str(ROOT / "bench"), str(repeat), env=threads))
    return {"ops": ops,
            "total_median_s": sum(o["median_s"] for o in ops.values() if "digest" in o),
            "rows_total_median_s": sum(o["median_s"] for o in ops.values() if "degeneracy" in o)}


class LayerSet(NamedTuple):
    out: str                               # the BENCH file --out defaults to
    repeat: int                            # REPEAT of the docstring
    measure: Callable[[Path, int], dict]   # (src, repeat) -> the set's figures
    snippets: tuple[str, ...]              # the code measure runs with `python -c`


SETS = {"poly": LayerSet("BENCH_poly_layers.json", 3, measure_poly,
                        (_SUITE, _RELATIONS, _CHECKS, _OPERATORS_RSS)),
        "tkk": LayerSet("BENCH_tkk_layers.json", 3, measure_tkk, (_LAYERS, _INFO_RSS)),
        "cone": LayerSet("BENCH_cone_threads.json", 15, measure_cone, (_OPS,))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("set", choices=SETS)
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path, help="default: the set's BENCH_*.json")
    args = ap.parse_args(argv)
    layers = SETS[args.set]
    out = args.out or ROOT / layers.out
    import numpy
    import scipy
    run = {"host": {"nproc": NPROC, "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
           "repeat": layers.repeat, **layers.measure(args.src.resolve(), layers.repeat)}
    result = json.loads(out.read_text()) if out.exists() else {}
    result["script"] = f"tools/layers.py {args.set}"
    result.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
