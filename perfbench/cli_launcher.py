"""Run one ``palg`` command with span tracing, for the traced cli run.

    python3 perfbench/cli_launcher.py SPAN_FILE ARG...

Wraps palg's entry points as ``palg.cli`` references them, calls
``palg.cli.main(ARG...)``, and writes the spans to SPAN_FILE when the
command ends, however it ends.  Nothing in palg itself changes; an
exception still escapes with its traceback, as it would from ``palg``.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import palg.cli
    try:
        return palg.cli.main(argv)
    finally:
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
