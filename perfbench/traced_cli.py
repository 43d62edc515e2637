"""Traced run of one moama command.

    PYTHONPATH=src python -u perfbench/traced_cli.py SPANS_FILE COMMAND [ARGS...]

Wraps the package's layer boundaries (see tracer.py), calls
``moama.cli.main`` with the command line, writes the recorded spans to
SPANS_FILE and exits with the command's exit code.
"""

from __future__ import annotations

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    tracer.install(rec)
    import moama.cli

    code = moama.cli.main(argv)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
