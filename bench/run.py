"""semint benchmark: one command per workload, run from the repository root.

    python3 bench/run.py --workload http-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` runs a fixed amount of the workload with the layer entry
points wrapped and prints the per-layer metrics instead. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``). Earlier lines describe the run.
Everything the run writes goes under ``.bench_work/`` at the repository root.
See ``bench/NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "semint" / "__init__.py").is_file():
    sys.stderr.write(f"bench: no semint sources under {ROOT / 'src'}; run from a full checkout\n")
    raise SystemExit(2)
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import closure_churn  # noqa: E402
import cli_session  # noqa: E402
import gen  # noqa: E402
import http_mix  # noqa: E402
import spans  # noqa: E402
from common import WORK, fresh_dir  # noqa: E402

WORKLOADS = {
    "http-mix": (http_mix.run, "M"),
    "cli-session": (cli_session.run, "M"),
    "closure-churn": (closure_churn.run, "L"),
}

#: end-to-end metrics: (name, unit); every workload reports all of them
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("slow_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(gen.SIZES), help="store size override; the self-test uses 'tiny'"
    )
    args = parser.parse_args(argv)
    # a terminated run still stops its server and worker children on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    workload, default_size = WORKLOADS[args.workload]
    sizes = gen.SIZES[args.size or default_size]
    work = fresh_dir(WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = spans.Tracer() if args.trace else None
    try:
        outcome = workload(work, sizes, args.seed, args.seconds, bool(args.trace), tracer)
        if tracer is not None:
            exported = spans.concat([tracer.export(), outcome.spans])
            trace_file = WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
            spans.write_spans(exported, trace_file)
            outcome.notes.append(f"{len(exported)} spans written to {trace_file.relative_to(ROOT)}")
            metrics = spans.per_layer(exported, outcome.metrics)
        else:
            metrics = {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in outcome.notes:
        print(note)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
