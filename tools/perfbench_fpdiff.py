#!/usr/bin/env python3
"""Check that two perfbench run records hold identical campaign outputs.

Usage:
  python3 tools/perfbench_fpdiff.py A.json B.json

A and B are the run records perfbench/run.py writes under
<build>/perfbench/runs/ (<workload>-<seed set>-trace<0|1>.json), for
example one from a checkout of the parent commit and one from a change.
Every campaign record of either file, untraced and traced, is keyed by
(model, seed, resumed). The tool exits 0 when both files hold the same
keys and each key carries a single fingerprint (suite inputs plus
GenStats) and a single coverage triple (decision, condition, MCDC) that
agree between the files. Otherwise it lists every difference and exits
1; bad usage or unreadable input exits 2.
"""

import json
import sys


def fail(msg):
    print(f"perfbench_fpdiff: {msg}", file=sys.stderr)
    sys.exit(2)


def outcomes(path):
    """Maps (model, seed, resumed) to the set of (fingerprint, coverage)."""
    try:
        with open(path) as f:
            run = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    found = {}
    for rec in run.get("untraced", []) + run.get("traced", []):
        key = (rec["model"], rec["seed"], rec["resumed"])
        value = (rec["fingerprint"],
                 (rec["decision"], rec["condition"], rec["mcdc"]))
        found.setdefault(key, set()).add(value)
    if not found:
        fail(f"{path} holds no campaign records")
    return found


def describe(values):
    return ", ".join(f"{fp} (coverage {d:.6f}/{c:.6f}/{m:.6f})"
                     for fp, (d, c, m) in sorted(values))


def main():
    if len(sys.argv) != 3:
        fail("usage: perfbench_fpdiff.py A.json B.json")
    a_path, b_path = sys.argv[1], sys.argv[2]
    a, b = outcomes(a_path), outcomes(b_path)
    problems = []
    for key in sorted(a.keys() | b.keys()):
        label = f"{key[0]} seed {key[1]}{' resumed' if key[2] else ''}"
        if key not in a or key not in b:
            problems.append(f"{label}: only in "
                            f"{a_path if key in a else b_path}")
            continue
        for path, values in ((a_path, a[key]), (b_path, b[key])):
            if len(values) > 1:
                problems.append(f"{label}: repeats differ in {path}: "
                                + describe(values))
        if a[key] != b[key]:
            problems.append(f"{label}: {describe(a[key])} vs "
                            f"{describe(b[key])}")
    for p in problems:
        print(p)
    print(f"perfbench_fpdiff: {len(a.keys() | b.keys())} campaigns, "
          f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
