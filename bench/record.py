"""Regenerate bench/expected.json from the program as it stands.

    python3 bench/record.py

Pins, for the gate in bench/workloads.py: the check-name set of every
(suite, algebra) the workloads verify, the digest of every info table, and
the digest of every verify report of the default workload seed.  Re-record
only when a change to the reports is intended; the file is the drift
guard's reference.
"""
import json
import sys

from run import cap_blas_threads, import_program


def main() -> int:
    cap_blas_threads()
    import_program()
    from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS, build_ops, info_table, verify_report

    expected = {"check_names": {}, "info": {}, "reports": {}}
    for workload in WORKLOADS:
        for op in build_ops(workload, DEFAULT_SEED):
            if op.kind == "verify":
                report, h = verify_report(op)
                if any(c["status"] == "fail" for c in report.checks):
                    print(f"refusing to pin a failing report: {op.key}", file=sys.stderr)
                    return 1
                names = sorted(c["name"] for c in report.checks)
                expected["check_names"].setdefault(f"{op.suite} {op.algebra}", names)
                expected["reports"][op.key] = h
            elif op.kind == "info":
                expected["info"][op.algebra] = info_table(op)[1]
        print(f"{workload} recorded", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
