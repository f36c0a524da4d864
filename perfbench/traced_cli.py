"""Run one geophase command with spans around its calls into each module.

Usage (PYTHONPATH must include src/):

    python3 perfbench/traced_cli.py SPANS_JSON <geophase arguments...>

Times ``import geophase.cli``, runs the command like ``python -m
geophase.cli`` would, writes the import time and the aggregated spans to
SPANS_JSON, and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = perf_counter()
    from geophase import cli
    import_s = perf_counter() - t0

    import spans

    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        code = cli.main(argv)
    finally:
        restore()
    spans_path.write_text(json.dumps({"import_s": import_s,
                                      **tracer.snapshot()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
