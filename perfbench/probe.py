"""Set-up probe: a fresh process brought to the point of its first request.

    python3 perfbench/probe.py WORKLOAD [CACHE_DIR]

Imports the API, resolves the kernel backend and, for ``cache-warm``,
prefills the working set into ``CACHE_DIR``; then prints
``ready <backend>``. The parent times spawn to that line.
"""

from __future__ import annotations

import sys

from workloads import WORKING_SET, check, load_known_answers


def main(argv: list) -> int:
    from repro.analysis.kernel import select
    from repro.api import execute, request_from_dict

    backend = select()
    if argv[0] == "cache-warm":
        table = load_known_answers()
        options = {"cache": True, "cache_dir": argv[1]}
        for payload in WORKING_SET:
            report = execute(request_from_dict({**payload, "options": options}))
            problem = check(table, payload, report.status, report.data)
            if problem is not None:
                print(f"prefill answer wrong: {problem}", file=sys.stderr)
                return 1
    print(f"ready {backend}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
