"""Run one ``su3asym`` command line with span tracing (traced cli-readme round).

Usage: python3 perfbench/cli_traced.py RUN_ID NAME ARGS...

Records a ``cli.import`` span around ``import su3asym.cli``, wraps the
package's cross-module names (see ``spans.install``), runs
``su3asym.cli.main(ARGS)`` inside a ``cli.NAME`` span, and hands the spans
back on the last stderr line, prefixed by ``spans.SPANS_MARKER``.
"""

import json
import sys

from spans import SPANS_MARKER, Tracer, install


def main() -> int:
    run_id, name, *argv = sys.argv[1:]
    tracer = Tracer(run_id)
    with tracer.span("cli.import"):
        import su3asym.cli as cli
    install(tracer, cli)
    try:
        with tracer.span(f"cli.{name}"):
            code = cli.main(argv)
    finally:
        tracer.unwrap_all()
    sys.stdout.flush()
    print(SPANS_MARKER + json.dumps(tracer.spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
