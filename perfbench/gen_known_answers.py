"""Regenerate ``known_answers.json`` from the program (rarely needed).

    PYTHONPATH=src python3 perfbench/gen_known_answers.py

The table is a regression oracle: it is recomputed only when the
answers are meant to change, and the figures the paper reproduction
states (Theorem 4.1 configuration totals, the exploration counts, the
doomed candidates' expected failures) are asserted before writing.
"""

from __future__ import annotations

import json
import sys

from workloads import KNOWN_ANSWERS, explore_instances, explore_key

PINNED_VERIFY = {"4": 4482, "5": 33374}
PINNED_EXPLORE = {"6:1,0,0,0,0,0": 3369, "7:1,0,0,0,0,0,0": 11406, "8:1,0,0,0,0,0,0,0": 38059}


def main() -> int:
    from repro.api import ExploreRequest, FuzzRequest, RefuteRequest, VerifyRequest, execute
    from repro.protocols.candidates import all_candidates

    table = {"verify": {}, "explore": {}, "explore_symmetry": {}, "refute": [], "fuzz": {}}
    for n in (3, 4, 5):
        report = execute(VerifyRequest(n=n))
        assert report.status == "ok", report.summary
        table["verify"][str(n)] = report.data["total_configurations"]
    report = execute(VerifyRequest(n=4, symmetry=True))
    assert report.status == "ok", report.summary
    table["verify"]["4/symmetry"] = report.data["total_configurations"]
    for n in (5, 6):
        report = execute(ExploreRequest(n=n, symmetry=True))
        table["explore_symmetry"][str(n)] = report.data["configurations"]
    for n, inputs in explore_instances():
        report = execute(ExploreRequest(n=n, inputs=inputs))
        assert report.data["complete"], (n, inputs)
        table["explore"][explore_key(n, inputs)] = report.data["configurations"]
    table["refute"] = [
        {"name": c.name, "expected": c.expected_failure} for c in all_candidates()
    ]
    report = execute(RefuteRequest())
    assert report.status == "ok", report.summary
    for n in (2, 3):
        report = execute(FuzzRequest(algorithm2_n=n))
        observed = {t["observed"] for t in report.data["targets"]}
        assert report.status == "ok" and observed == {"none"}, report.summary
        table["fuzz"][f"algorithm2_n={n}"] = {
            "targets": len(report.data["targets"]),
            "observed": "none",
            "default_budget": FuzzRequest.budget,
        }

    for key, want in PINNED_VERIFY.items():
        assert table["verify"][key] == want, (key, table["verify"][key])
    for key, want in PINNED_EXPLORE.items():
        assert table["explore"][key] == want, (key, table["explore"][key])
    KNOWN_ANSWERS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {KNOWN_ANSWERS.name}: {len(table['explore'])} explore counts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
