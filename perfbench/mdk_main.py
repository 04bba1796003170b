"""`mdk` entry point for the cli workload: the same as the installed
console script, `mdkit.cli.main`.

Usage: python3 perfbench/mdk_main.py <mdk arguments>   (with src/ on
PYTHONPATH).  When PERFBENCH_TRACE_FILE names a file, the command runs
traced: `import mdkit.cli` and `mdkit.cli.run` become the spans
cli.import and cli.run, every library layer is wrapped as in the traced
worker, and the spans are written to that file at exit.
"""

import os
import sys
from time import perf_counter

from spans import TRACE_ENV, Tracer


def traced_main(path: str) -> int:
    tracer = Tracer()
    start = perf_counter()
    import mdkit.cli
    tracer.add("cli.import", start, perf_counter())
    tracer.install()
    with tracer.span("cli.run"):
        code = mdkit.cli.run(sys.argv[1:])
    tracer.dump(path)
    return code


if __name__ == "__main__":
    trace_path = os.environ.get(TRACE_ENV)
    if trace_path:
        sys.exit(traced_main(trace_path))
    from mdkit.cli import main
    main()
