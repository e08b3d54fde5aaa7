"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The C kernel is rebuilt from
the checkout's ``_ckernel.c`` first; the program then runs with its
defaults (kernel ``auto``, no kernel or pool knobs). The next-to-last
stdout line is a provenance record (``{"perfbench": ...}``); the last
line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer ones (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

from common import END_TO_END, PER_LAYER, ROOT, SRC, child_env, default_env
from workloads import WORKLOADS


def _parse(argv: Any) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _build_kernel(work: Path) -> None:
    """Compile the extension from this checkout (a failed build leaves
    ``auto`` on the python backend, which the provenance then shows)."""
    subprocess.run(
        [sys.executable, "-m", "repro.analysis.kernel._build"],
        cwd=ROOT,
        env=child_env(work),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=False,
    )


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or "unknown"


def _provenance(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.analysis.cache import code_salt
    from repro.analysis.kernel import select

    c_source = (SRC / "repro" / "analysis" / "kernel" / "_ckernel.c").read_bytes()
    return {
        "git_sha": _git_sha(),
        "source_digest": hashlib.sha256(code_salt().encode() + c_source).hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": select(),
    }


def main(argv: Any = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        default_env(work)
        _build_kernel(work)
        sys.path.insert(0, str(SRC))
        import repro

        if Path(repro.__file__).resolve().parent != SRC / "repro":
            raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
        provenance = _provenance(args)
        if args.workload == "serve-open":
            import serve_open

            outcome = serve_open.run(args.seed, args.seconds, bool(args.trace), work)
        else:
            import inproc

            outcome = inproc.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(outcome["metrics"][name]), "unit": unit} for name, unit in catalogue
    }
    print(json.dumps({"perfbench": {**provenance, **outcome["detail"]}}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
