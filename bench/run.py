"""jkepler benchmark: time to verdict on two fixed op lists.

    python3 bench/run.py --workload exact --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; jkepler is imported from ./src.
Load is one closed-loop client in this process: each op starts when the
previous one returns, `--jobs` stays at 1, BLAS threads are capped at the
number of usable cores.  Every per-op seed is derived from --seed.

--trace 0 runs the workload's op list (a pass) in whole passes, each op with
the same input every time, and starts another pass only if it should still
end within --seconds.  It reports end-to-end metrics:

  wall_s       time to verdict of the op list: the median over passes of
               the pass's summed op times (garbage left by the previous op
               is collected between ops, outside the timing)
  setup_s      median over fresh interpreters of process start to first op
               (interpreter start, import jkepler, building the op list)
  peak_rss_mb  peak resident memory of this process (ru_maxrss)

--trace 1 runs the op list twice: with every layer wrapped (bench/tracer.py),
then untraced.  It reports per-layer counts and self times of the traced
pass, and the tracing overhead (traced wall minus untraced wall); spans go
to bench/out/.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  failed counts failed ops (failed_frac = failed / attempted,
printed above it); correct is false when any op fails other than the known
defects listed in bench/workloads.py.  Exit status 2 without a result when
the checkout has no jkepler sources.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 7
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(n)
    return n


class NoProgram(RuntimeError):
    """The checkout holds no jkepler sources to benchmark."""


def import_program():
    """Put ./src first on sys.path and import jkepler from there."""
    if not (SRC / "jkepler" / "__init__.py").is_file():
        raise NoProgram(f"no jkepler sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import jkepler
    if Path(jkepler.__file__).resolve().parent != SRC / "jkepler":
        raise NoProgram(f"jkepler imported from {jkepler.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its op list being ready."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1]) - t0


def run_pass(ops, expected, tracer=None):
    from workloads import execute
    t0 = time.perf_counter()
    outcomes = []
    for op in ops:
        if tracer is None:
            outcomes.append(execute(op, expected))
        else:
            with tracer.root(op.key):
                outcomes.append(execute(op, expected))
    return time.perf_counter() - t0, outcomes


def environment(args, nproc, passes, ops_per_pass) -> dict:
    import numpy
    try:
        # The ceiling keeps git from looking above the checkout for a repository.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                                ).stdout.strip() or None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for p in sorted((SRC / "jkepler").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": nproc, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy_version, "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "git_commit": commit, "source_sha256": h.hexdigest(), "workload": args.workload,
            "seed": args.seed, "trace": args.trace, "seconds": args.seconds, "passes": passes,
            "ops_per_pass": ops_per_pass}


def report_outcomes(outcomes) -> tuple[bool, int]:
    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        tag = "known defect" if o.known_defect else "FAILED"
        print(f"  {tag}: {o.op.key}: {o.reason}")
    return all(o.known_defect for o in failed), len(failed)


def measure(args, expected, ops) -> dict:
    from workloads import execute
    # Set-up probes before and after the passes, so that their median spans
    # the run rather than one moment of the machine's load.
    setups = [probe_setup(args.workload, args.seed) for _ in range(PROBES // 2)]
    times = [[] for _ in ops]           # seconds per op, one per pass
    outcomes = []
    start = time.monotonic()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for j, op in enumerate(ops):
            gc.collect()                # the previous op's garbage is not this op's time
            t0 = time.perf_counter()
            outcomes.append(execute(op, expected))
            times[j].append(time.perf_counter() - t0)
        passes += 1
        # Whole passes only, so every op is attempted equally often; another
        # pass runs only if it should still end within --seconds.
        if time.monotonic() - start + (time.perf_counter() - t_pass) > args.seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [probe_setup(args.workload, args.seed) for _ in range(PROBES - PROBES // 2)]
    wall = statistics.median([sum(p) for p in zip(*times)])
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "setup_s": {"value": statistics.median(setups), "unit": "s"},
               "peak_rss_mb": {"value": peak, "unit": "MB"}}
    for j, t in enumerate(times):
        print(f"  op {j:2d} {ops[j].key}: " + " ".join(f"{x:.4f}" for x in t))
    print(f"  setup_s per probe: {', '.join(f'{s:.3f}' for s in setups)}")
    return {"metrics": metrics, "outcomes": outcomes, "passes": passes}


def measure_traced(args, expected, ops) -> dict:
    from tracer import Tracer, layer_metrics
    tracer = Tracer()
    tracer.install()
    try:
        traced, outs1 = run_pass(ops, expected, tracer)
    finally:
        tracer.restore()
    untraced, outs2 = run_pass(ops, expected)
    for miss in tracer.missing:
        print(f"  trace target not found: {miss}", file=sys.stderr)
    tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    layers = layer_metrics(tracer)
    layers["weyl.restriction_degeneracy.mismatch"] = sum(
        1 for o in outs1 if o.op.kind == "row" and o.value is not None and not o.ok)
    layers["trace.wall_s"] = traced
    layers["trace.overhead_s"] = traced - untraced
    print(f"  traced pass {traced:.3f} s, untraced pass {untraced:.3f} s, "
          f"root spans cover {tracer.root_seconds():.3f} s, {len(tracer.spans)} spans")
    kernel = layers["weyl.compose.self_s"] + layers["phase.poisson_poly.self_s"]
    print(f"  share of traced wall: weyl.compose.self_s + phase.poisson_poly.self_s = "
          f"{kernel / traced:.3f}; conformal.str_span.build_s = "
          f"{layers['conformal.str_span.build_s'] / traced:.3f}")
    for name, value in layers.items():
        print(f"  {name:40s} {value}")
    metrics = {n: {"value": v, "unit": "s" if n.endswith("_s") else "count"}
               for n, v in layers.items()}
    return {"metrics": metrics, "outcomes": outs1 + outs2, "passes": 2}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("exact", "cone-spectrum"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = cap_blas_threads()
    try:
        import_program()
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import build_ops, load_expected
    expected = load_expected()

    ops = build_ops(args.workload, args.seed)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    result = (measure_traced if args.trace else measure)(args, expected, ops)
    outcomes = result["outcomes"]
    correct, failed = report_outcomes(outcomes)
    attempted = len(outcomes)
    print(f"  ops attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f}"
          f" passes={result['passes']}")
    for name, m in result["metrics"].items():
        if not args.trace:
            print(f"  {name} = {m['value']:.4f} {m['unit']}")
    env = environment(args, nproc, result["passes"], len(ops))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
