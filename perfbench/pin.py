"""Regenerate ``pins.json``: the reference results the benchmark checks.

Run from the repository root on the commit whose results are the
reference (about a minute on two cores; disco-101x103 alone is ~25 s)::

    python3 perfbench/pin.py

It records, for every campaign lattice row any seed can draw (every
alternative of every slot, plus the golden runs), the digest of its
payload and its worst-case latencies; and the exact worst case of each
budgeted-worst-case family.
"""

from __future__ import annotations

import json
import sys

import inputs

sys.path.insert(0, str(inputs.ROOT / "src"))


def main() -> int:
    from repro.api import Session

    runs = inputs.golden_runs() + [
        run for a in range(inputs.ALTERNATIVES)
        for run in inputs.lattice_slot_runs(a)
    ]
    lattice = {}
    exact = {}
    with Session() as session:
        for run in runs:
            payload = getattr(session, run["verb"])(run["spec"]).payload
            payload = json.loads(json.dumps(payload))
            report = payload.get("analytic", payload)
            lattice[run["label"]] = {
                "digest": inputs.digest(payload),
                "worst_one_way": report.get("worst_one_way"),
                "worst_two_way": report.get("worst_two_way"),
            }
        for family, pair in inputs.WC_FAMILIES.items():
            result = session.worst_case({"pair": pair})
            exact[family] = result.payload["analytic"]["worst_one_way"]
            print(family, exact[family], flush=True)
    with open(inputs.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"lattice": lattice, "wc_exact": exact}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(lattice)} lattice rows, {len(exact)} families")
    return 0


if __name__ == "__main__":
    sys.exit(main())
