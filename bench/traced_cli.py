"""Cold ``emphase`` process with every layer traced.

Usage: python3 traced_cli.py SPANS_FILE <emphase arguments>

Runs ``emphase.cli.main`` like ``python -m emphase.cli`` does and writes
its spans to SPANS_FILE when it ends.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from tracer import Tracer, install  # noqa: E402

from emphase import cli  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer, layers.layer_modules(), layers.observers(tracer))
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.write(Path(sys.argv[1]))
    raise SystemExit(code)
