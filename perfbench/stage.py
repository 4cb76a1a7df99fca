"""Run one ``sparsedyn`` command in a fresh interpreter and record it.

Usage: python3 perfbench/stage.py RECORD.json TRACE -- <sparsedyn arguments>

Does what the ``sparsedyn`` console script does (``sparsedyn.cli.main``),
and also writes RECORD.json with the import time, the exit code, the
number of fits that diverged or did not converge and, with TRACE=1, the
spans of the command.  The exit code is the command's.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: stage.py RECORD.json TRACE -- <sparsedyn arguments>")
    argv = sys.argv[4:]
    start = time.perf_counter()
    import sparsedyn.cli

    import_s = time.perf_counter() - start
    from tracing import FitLog, Tracer, patched

    fits = FitLog()
    tracer = Tracer()
    wrappers = fits.wrappers() + (tracer.wrappers() if trace else [])
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    with patched(wrappers):
        if trace:
            with tracer.span("cli.command"):
                code = sparsedyn.cli.run(argv)
        else:
            code = sparsedyn.cli.run(argv)
    record = {
        "import_s": import_s,
        "code": code,
        "fit_failures": fits.failures(),
        "spans": tracer.spans,
    }
    with open(record_path, "w") as out:
        json.dump(record, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
