#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/test_bench.py [WORKLOAD ...]

1. The output checker's self-test (`run.py --self-test`).
2. For each workload (all four by default): two short runs with the same
   seed must both pass every output check and print identical EXACT lines
   (T0 executor counters, catalogue entries, warm-up plan-cache hits and
   misses) — the exact gate for hardware-independent counts.
"""

import json
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]
WORKLOADS = ["paper-recurring", "adhoc-labeled", "read-write", "cluster-rows"]


def run(workload, seed):
    r = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "2",
                              "--trace", "0"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, None, r.stderr
    exact = [l for l in lines if l.startswith("EXACT ")]
    return json.loads(lines[-1]), exact[0] if exact else None, r.stderr


def main():
    ok = True
    st = subprocess.run(RUN + ["--self-test"])
    print("checker self-test: %s" % ("ok" if st.returncode == 0 else "FAILED"))
    ok &= st.returncode == 0
    for w in sys.argv[1:] or WORKLOADS:
        a, ea, err_a = run(w, 7)
        b, eb, err_b = run(w, 7)
        if a is None or b is None:
            print("%s: run failed\n%s%s" % (w, err_a, err_b))
            ok = False
            continue
        passed = all(x["correct"] and x["failed"] == 0 for x in (a, b))
        same = ea is not None and ea == eb
        print("%s: outputs %s, exact counts %s" % (
            w, "checked" if passed else "FAILED", "repeat" if same else "DIFFER"))
        if not same:
            print("  first:  %s\n  second: %s" % (ea, eb))
        ok &= passed and same
    print("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
