"""Write ``expected.json``: the outputs every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/record.py

Run it only when a change is meant to alter frobtab's results, and say why in
that change.  Each record comes from one pass at seed 0 that passed its
per-item certificates.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    record: dict = {}
    for size in ("full", "tiny"):
        for name in workloads.WORKLOADS:
            res = workloads.run_pass(name, 0, size)
            if res.failed:
                print(f"{name} ({size}): {res.failed} items failed; nothing written",
                      file=sys.stderr)
                return 1
            record.setdefault(size, {})[name] = res.record
            print(f"{name} ({size}): {res.attempted} items recorded")
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
