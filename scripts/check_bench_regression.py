#!/usr/bin/env python3
"""Forward-throughput regression gate for the release-bench CI job.

Compares a fresh bench_infer JSON report against the checked-in baseline
(bench/baseline_infer.json) and fails when any gated metric drops more
than `tolerance` (default 15%) below its baseline value.

The gated metrics are same-machine RATIOS (kernel/autograd, int8/autograd):
absolute GFLOP/s numbers differ several-fold between CI runner SKUs and
would make any absolute gate either useless or flaky, while a ratio of
two measurements taken back to back on the same core cancels the machine
out. See bench/baseline_infer.json for how baseline values were chosen.

Usage: check_bench_regression.py <current.json> <baseline.json>
Exit code 0 = pass, 1 = regression, 2 = malformed input.
"""
import json
import sys


def match_entry(entries, baseline_entry, keys):
    """Finds the report entry matching a baseline entry on `keys`."""
    for entry in entries:
        if all(entry.get(k) == baseline_entry.get(k) for k in keys):
            return entry
    return None


# section name -> (identity keys, gated metric)
# A (current, baseline) pair only gates the sections its baseline lists, so
# the same script serves bench_infer (baseline_infer.json) and bench_serve
# (baseline_serve.json) reports — CI invokes it once per pair.
GATES = {
    "forward": (("config",), "kernel_vs_autograd_t1"),
    # int8 gates against the same autograd denominator as "forward", so a
    # faster fp32 kernel cannot trip it; int8_vs_fp32_t1 stays in the report.
    "forward_int8": (("config",), "int8_vs_autograd_t1"),
    "gemm_int8": (("m", "k", "n"), "int8_vs_fp32"),
    "serve": (("scenario",), "pipelined_vs_unpipelined"),
}


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        current = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)

    tolerance = float(baseline.get("tolerance", 0.15))
    failures = []
    checked = 0
    for section, (keys, metric) in GATES.items():
        for base_entry in baseline.get(section, []):
            ident = "/".join(str(base_entry[k]) for k in keys)
            entry = match_entry(current.get(section, []), base_entry, keys)
            if entry is None or metric not in entry:
                failures.append(
                    f"{section}[{ident}]: metric {metric} missing from report "
                    "(did the bench schema change without updating the "
                    "baseline?)")
                continue
            want = float(base_entry[metric])
            got = float(entry[metric])
            floor = want * (1.0 - tolerance)
            verdict = "OK" if got >= floor else "REGRESSION"
            checked += 1
            print(f"{section}[{ident}].{metric}: {got:.3f} "
                  f"(baseline {want:.3f}, floor {floor:.3f}) {verdict}")
            if got < floor:
                failures.append(
                    f"{section}[{ident}].{metric} = {got:.3f} fell below "
                    f"{floor:.3f} ({tolerance:.0%} under baseline {want:.3f})")

    if checked == 0:
        failures.append("baseline gated no metrics at all")
    if failures:
        print("\nbench regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nbench regression gate passed ({checked} metrics).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
