"""Traced stand-in for ``python -m qpdyn.cli``.

Usage: python cli_child.py SPANS_JSON ARG...

Imports qpdyn.cli and runs ``cli.main(ARG...)`` exactly as the module
entry point does, with a span around the import, around ``main`` and
around each layer call ``main`` makes.  The spans go to SPANS_JSON; stdout
and the exit code are the CLI's own.
"""

import sys

from layers import patch_cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import qpdyn.cli as cli
    patch_cli(tracer)
    with tracer.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
