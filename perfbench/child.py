"""One benchmark repetition: a fresh process that calls ``decflow``'s
``main`` once and saves what it measured.

Usage: python3 child.py <result.json> <mode> <decflow argv...>

``mode`` is ``plain``, ``traced`` or ``setup`` (stop at the first step, or
after the verify corpus).  The working directory holds the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from decflow.cli_io import main  # noqa: E402

from instruments import SetupDone, Spans, Stamps  # noqa: E402


def repeat(result_path: str, mode: str, argv: list) -> None:
    stamps = Stamps(setup_only=mode == "setup")
    stamps.install()
    spans = None
    if mode == "traced":
        spans = Spans()
        spans.install()

    stdout = io.StringIO()
    exit_code = None
    t_enter = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            exit_code = main(argv)
    except SetupDone:
        pass
    t_return = time.perf_counter()

    result = {
        "mode": mode,
        "exit_code": exit_code,
        "t_enter": t_enter,
        "t_return": t_return,
        "stdout": stdout.getvalue(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **stamps.as_dict(),
    }
    if spans is not None:
        spans_path = os.path.splitext(result_path)[0] + ".spans.npz"
        spans.save(spans_path)
        result["span_names"] = spans.names
        result["spans_file"] = spans_path
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    repeat(sys.argv[1], sys.argv[2], sys.argv[3:])
