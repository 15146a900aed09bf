#!/usr/bin/env python3
"""Determinism test of servebench.

For every workload, two separate processes given the same seed must produce
the same request sequence (equal digests of the instance fingerprints,
engines, deadlines and arrival times) and exactly equal engine counters over
the layer probe's sample (engine.*, flow.*, bigint.*, rational.*); a third
process with another seed must produce another sequence. These are the counts
a later change may cite as evidence.

Usage, from the repository root:

    python3 servebench/test_determinism.py

Builds the benchmark as run.py does. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build lives there)

WORKLOADS = ("exact_cold", "hit_wire", "mixed_open")


def probe(binary, workload, seed):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--probe-only"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    binary = run.build()
    failures = 0
    for workload in WORKLOADS:
        first = probe(binary, workload, 7)
        second = probe(binary, workload, 7)
        other = probe(binary, workload, 8)
        checks = [
            ("same seed, same sequence", first["digest"] == second["digest"]),
            ("same seed, same counts", first["counts"] == second["counts"]),
            ("other seed, other sequence", first["digest"] != other["digest"]),
            ("engines did work", first["counts"]["engine.flow_computations"] > 0),
        ]
        if workload == "exact_cold":
            # The probe sample includes the rescaled quarter.
            checks.append(("rescaled instances promote BigInts",
                           first["counts"]["bigint.promotions"] > 0))
        for name, ok in checks:
            print("%-4s %-10s %s" % ("ok" if ok else "FAIL", workload, name))
            failures += 0 if ok else 1
        print("     %-10s digest %s, counts %s" % (workload, first["digest"],
                                                   json.dumps(first["counts"])))
    print("determinism: %s" % ("PASS" if failures == 0 else "%d FAILED" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
