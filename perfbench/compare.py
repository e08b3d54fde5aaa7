"""Compare two saved benchmark outputs metric by metric.

    python3 perfbench/compare.py BASE.out HEAD.out

Each file is the stdout of one ``run.py`` call. Runs measured on a
different kernel backend, CPU count, Python, workload, trace mode or
run length are refused (exit 2): their numbers do not compare.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Tuple

#: Provenance fields that must agree for two runs to compare.
MUST_MATCH = ("kernel", "cpu_count", "python", "workload", "trace", "seconds")


def load(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def main(argv: list) -> int:
    (base_meta, base), (head_meta, head) = load(argv[0]), load(argv[1])
    differ = [key for key in MUST_MATCH if base_meta.get(key) != head_meta.get(key)]
    if differ:
        for key in differ:
            before, after = base_meta.get(key), head_meta.get(key)
            print(f"refused: {key} differs ({before!r} vs {after!r})", file=sys.stderr)
        return 2
    for name, metric in base["metrics"].items():
        after = head["metrics"][name]["value"]
        ratio = after / metric["value"] if metric["value"] else float("nan")
        print(f"{name:28s} {metric['value']:14.6g} {after:14.6g}  x{ratio:.3f} {metric['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
