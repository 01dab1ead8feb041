"""``repro serve`` with the benchmark's span wrappers installed.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 layerbench/traced_server.py SPANS.npz serve --model model.bin --port 0

The wrappers go in before the server starts; the spans stay in memory and
are written to ``SPANS.npz`` once the server has drained and stopped
(SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, install_library_spans, install_serving_spans  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.api.backends import BloomBackend
    from repro.cli import main as cli_main

    spans_path, serve_args = Path(argv[0]), argv[1:]
    recorder = SpanRecorder()
    install_library_spans(recorder, BloomBackend)
    install_serving_spans(recorder)
    try:
        return cli_main(serve_args)
    finally:
        recorder.uninstall()
        recorder.table().save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
