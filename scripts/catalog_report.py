#!/usr/bin/env python3
"""Full regression report over the embedded catalog.

Re-derives every catalogued claim (Jacobi, family memberships, structure
tags, parameter counts against computed dimensions, metric/Casimir
inversion) and prints one line per entry plus the recorded so(n) Killing
scalars.  Everything is exact; a FAIL here means a transcription or solver
regression, a flag marks a documented data quirk.
"""

import argparse
import sys
import time

from darbouxops import catalog, invariants, lie
from darbouxops.scalars import Scalar


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entry", help="verify a single entry instead of all")
    parser.add_argument("--dims", action="store_true", help="also print space dimensions")
    args = parser.parse_args()

    names = [args.entry] if args.entry else catalog.catalog_list()
    t0 = time.monotonic()
    failures = 0
    for name in names:
        entry = catalog.catalog_get(name)
        report = catalog.verify_entry(name)
        status = "PASS" if report.passed else "FAIL"
        failures += not report.passed
        extra = ""
        if args.dims:
            cas = invariants.quadratic_casimir_space(entry.algebra).dim
            met = invariants.compatible_metric_space(entry.algebra).dim
            coc = invariants.two_cocycle_space(entry.algebra).dim
            extra = f"  dims(casimir,metric,cocycle)=({cas},{met},{coc})"
        print(f"{name:10s} {status}  {entry.algebra_name:22s} {entry.structure:18s}{extra}")
        for label in report.failed_names():
            print(f"           !! {label}")
        for flag in report.flags:
            print(f"           flag: {flag}")
    elapsed = time.monotonic() - t0

    print()
    print("Killing scalars of so(n) in the pair basis (computed exactly):")
    for n in (3, 4, 5):
        k = lie.killing_form(lie.so_n(n))
        print(
            f"  so({n}): K = {k[0][0]} * I_{n * (n - 1) // 2}"
            f"   [claimed -(n+2) would be {Scalar(-(n + 2))}]"
        )
    print(f"\n{len(names)} entries in {elapsed:.1f}s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
