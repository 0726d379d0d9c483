"""Child-process entry of the cli workload.

Runs pmod's console entry point (``pmod.cli:main``, what the ``pmod``
command calls) from the checkout's ``src/``. When PMOD_BENCH_SPANS names a
file, the benchmark's tracer wraps the layers first and the spans are
written to that file on exit.

    python3 bench/launch.py fuse a.json b.json --format json
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pmod.cli  # noqa: E402
import pmod.fileio  # noqa: E402,F401  (the tracer wraps it)


def main() -> int:
    out = os.environ.get("PMOD_BENCH_SPANS")
    if not out:
        return pmod.cli.main(sys.argv[1:])
    from tracer import Tracer

    tracer = Tracer()
    tracer.case = os.environ.get("PMOD_BENCH_CASE")
    tracer.install(pmod)
    try:
        return pmod.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        Path(out).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
