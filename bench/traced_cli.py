"""Run one semint CLI command with the layer entry points traced.

    python3 bench/traced_cli.py --spans OUT.jsonl -- --store DIR interop a b

Behaves like ``python -m semint.cli`` (same stdout, stderr and exit code)
and writes the recorded spans to ``OUT.jsonl`` when the command ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import semint.cli  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--spans" or sys.argv[3] != "--":
        sys.stderr.write(__doc__)
        return 2
    tracer = spans.Tracer()
    try:
        with tracer.installed():
            code = semint.cli.main(sys.argv[4:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    spans.write_spans(tracer.export(), Path(sys.argv[2]))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
