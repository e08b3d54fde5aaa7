"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_host.py SPAN_DIR [repro serve options...]

The wrappers are installed before the server starts, so the process
pool's forked workers inherit them. Every process writes its spans to
``SPAN_DIR/spans-<pid>.jsonl`` when it exits.
"""

from __future__ import annotations

import sys

import layers
from spans import SpanRecorder


def main(argv: list) -> int:
    recorder = SpanRecorder(argv[0])
    layers.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *argv[1:]])
    finally:
        recorder.dump()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
