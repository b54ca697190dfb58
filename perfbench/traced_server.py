"""Run a server CLI with the benchmark's span recorder installed.

Usage: ``python perfbench/traced_server.py SPANS_FILE ROLE MODULE [CLI args...]``
where MODULE is ``repro.server`` or ``repro.coordinator``.  The CLI's own
``main`` runs unchanged; the spans are written to SPANS_FILE after it
returns (SIGTERM → drain → exit).
"""

from __future__ import annotations

import importlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv) -> int:
    spans_path, _role, module, *cli_args = argv
    recorder = tracer.SpanRecorder()
    tracer.install_server(recorder)
    entry = importlib.import_module(f"{module}.__main__")
    try:
        return entry.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
