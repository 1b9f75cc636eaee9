"""Run CLI argument lists in one process with the program's functions traced.

Usage: python3 benchmarks/traced_cli.py SPANS_OUT ARGV_LISTS_JSON

Each argument list is passed to ``wnocpower.cli.main`` inside a
``cli.main`` span keyed by its subcommand; the spans are written to
SPANS_OUT at the end and the exit code is that of the last list.
"""

import json
import sys

from tracing import Recorder


def main() -> int:
    spans_out, argv_lists = sys.argv[1], json.loads(sys.argv[2])
    import wnocpower.cli as cli

    recorder = Recorder()
    recorder.install()
    code = 0
    for argv in argv_lists:
        with recorder.span("cli.main", argv[0]):
            code = cli.main(argv)
    recorder.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
