"""Record the expected outputs the gate compares against.

Run from the repository root at the commit whose outputs are the
reference:  python3 perfbench/record_expected.py
It writes perfbench/expected/catalog.json (per-entry check lists, flags and
the flagged set) and perfbench/expected/scale.json (output digest of every
ladder step).  The outputs do not depend on the seed.
"""

import json
import os

import run  # noqa: F401  (puts the package on sys.path)
from gate import EXPECTED_DIR
from workloads import digest, generate, run_pass


def main() -> int:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    results = run_pass(generate("catalog", 0), None)
    entries = {r.label: {"checks": r.output["checks"], "flags": r.output["flags"]}
               for r in results.values()}
    catalog = {"entries": entries,
               "flagged": sorted(name for name, e in entries.items() if e["flags"])}
    results = run_pass(generate("scale", 0), None)
    scale = {"digests": {r.label: digest(r.output) for r in results.values()}}
    for name, data in (("catalog", catalog), ("scale", scale)):
        with open(os.path.join(EXPECTED_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
