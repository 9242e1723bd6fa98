"""Timings of the cone and measure suites of the cone-spectrum benchmark
workload, written to BENCH_cone_threads.json.

    python3 tools/cone_layers.py --label NAME [--src PATH] [--out BENCH_cone_threads.json]

--src is the `src` directory of the checkout to measure (default: the one
next to this script), so a parent checkout and a change are measured by the
same code.  One fresh interpreter imports jkepler from --src and this
checkout's bench/workloads.py, with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS set to the usable core count, as bench/run.py sets them.  It
takes the 10 `verify` ops of the cone-spectrum workload at the benchmark's
seed 0 (`cone` and `measure` on gamma:3, h:3:R, h:3:C, h:3:H, h:3:O, trials
3, seed-derived op seeds) and, for each op, runs it once to warm the caches
and then REPEAT = 15 times.  Per op it records:

  median_s, q1_s, q3_s   median and quartiles of the op's time (cli.run plus
                         the JSON emit, as bench/workloads.verify_report)
  digest                 sha256 of the op's JSON report with wall_time_ms
                         zeroed, the digest the benchmark pins

and total_median_s, the sum of the medians.  The result is merged into --out
under --label with the host's core count and the Python, numpy and scipy
versions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
REPEAT = 15

_OPS = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import workloads
repeat = int(sys.argv[2])
out = {}
for op in workloads.build_ops("cone-spectrum", 0):
    if op.kind != "verify":
        continue
    workloads.verify_report(op)
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        _, h = workloads.verify_report(op)
        times.append(time.perf_counter() - t)
    q1, med, q3 = statistics.quantiles(times, n=4)
    out[op.key] = {"median_s": med, "q1_s": q1, "q3_s": q3, "digest": h}
    print(op.key, round(med, 4), h[:12], file=sys.stderr)
import numpy, scipy
print(json.dumps({"ops": out, "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


def measure(src: Path) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: str(nproc) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, "-c", _OPS, str(BENCH), str(REPEAT)], env=env,
                          check=True, stdout=subprocess.PIPE, text=True)
    got = json.loads(proc.stdout)
    ops = got["ops"]
    return {"host": {"nproc": nproc, "python": platform.python_version(),
                     "numpy": got["numpy"], "scipy": got["scipy"]},
            "repeat": REPEAT, "ops": ops,
            "total_median_s": sum(o["median_s"] for o in ops.values())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, default=HERE.parent / "src")
    ap.add_argument("--out", type=Path, default=HERE.parent / "BENCH_cone_threads.json")
    args = ap.parse_args(argv)
    result = json.loads(args.out.read_text()) if args.out.exists() else {}
    result.setdefault("script", "tools/cone_layers.py")
    result.setdefault("runs", {})[args.label] = measure(args.src.resolve())
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
