"""Run every workload and record one point of the performance trajectory.

    python3 bench/trajectory.py --label seed-9f1db08 --runs 10

For each workload: --runs untraced runs with seeds 1..runs, then one traced
run with seed 1, each a fresh `bench/run.py` process.  Prints wall_s,
setup_s, failed_frac and peak_rss_mb with units per workload (median and
quartile spread over the runs) and writes every run's result line and
environment record to bench/trajectory/<label>.json.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact", "cone-spectrum")


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    result = json.loads(lines[-1])
    if not trace:
        print(f"# {workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), file=sys.stderr,
            flush=True)
    return {"seed": seed, "trace": trace, "env": env, "result": result,
            "notes": [ln.strip() for ln in lines if ln.lstrip().startswith(("known defect", "FAILED"))]}


def summarize(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()

    point = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    print(f"{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s}  unit")
    for w in WORKLOADS:
        runs = [run_once(w, s, args.seconds, 0) for s in range(1, args.runs + 1)]
        traced = run_once(w, 1, args.seconds, 1)
        rows = {name: ([r["result"]["metrics"][name]["value"] for r in runs],
                       runs[0]["result"]["metrics"][name]["unit"])
                for name in runs[0]["result"]["metrics"]}
        rows["failed_frac"] = ([r["result"]["failed"] / r["result"]["attempted"] for r in runs],
                               "ratio")
        summary = {}
        for name, (values, unit) in rows.items():
            s = summarize(values)
            summary[name] = {**s, "unit": unit}
            print(f"{w:16s} {name:12s} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{s['spread']:7.3f}  {unit}")
        for note in sorted({re.sub(r"/seed=\d+", "", n).split(": ")[1] for r in runs for n in r["notes"]}):
            print(f"{'':16s} failed op: {note}")
        point["workloads"][w] = {"summary": summary, "runs": runs, "traced": traced}
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
