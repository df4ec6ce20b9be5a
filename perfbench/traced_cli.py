"""Run one johnson-walk CLI command with per-layer spans recorded.

    python3 perfbench/traced_cli.py <johnson-walk arguments>

The command's stdout and exit code are unchanged.  The span summary of the
process (see tracer.py) goes to stderr as its last line, after SPAN_MARKER.
src/ must be on PYTHONPATH, as the benchmark sets it for its children.
"""
import json
import sys

from tracer import IMPORT_SPAN, SPAN_MARKER, Tracer


def main(argv) -> int:
    tracer = Tracer()
    with tracer.span(IMPORT_SPAN):
        import johnson_walk.cli as cli
    with tracer.installed():
        code = cli.main(argv)
    sys.stdout.flush()
    print(SPAN_MARKER + json.dumps(tracer.take_op()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
