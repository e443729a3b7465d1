"""``closure-churn``: write batches and verdict reads in one library process.

Each round imports 200 new mapping rows with ``import_mappings_tsv``, asks
the first ``interop_level`` verdict after it, then runs a burst of reads
(``interop_level``, ``equivalence_class``, ``explain_path``,
``validate_instance``, ``transform_instance``). Every write invalidates the
closure snapshot, so the closure build sits on each round's critical path.
After its burst, untimed, the round's rows are removed again, so every round
starts from the same 16,000 edges and the median does not depend on how many
rounds fit into a run.

The rounds run in a worker process (this file's ``__main__``) that loads the
generated store and reports its own peak RSS, which is therefore the
engine's and not the generator's.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from common import SETUPS, Outcome, child_env, median, peak_rss_mb, python_cmd, read_line, stop  # noqa: E402
from semint import InteropLevel, documents, store  # noqa: E402

BATCH = 200
#: read kind -> calls per burst
BURST = {"interop": 114, "equivalence": 40, "explain": 6, "validate": 20, "transform": 20}
#: explained pairs end at a parent with at most this many descendants; the
#: path search walks that subtree, so this keeps every explanation's cost alike
EXPLAIN_SUBTREE = 8
CHECKED_VERDICTS = 5
TRACED_ROUNDS = 3
#: rounds each worker makes however short its part, so the median has samples
MIN_ROUNDS = 2


# ---------------------------------------------------------------------------
# orchestrator side


def _spawn_worker(store_dir: Path, sizes: gen.Sizes, seed: int, part: int, seconds: float, trace: bool, spans_file: Path):
    cmd = python_cmd(
        str(Path(__file__).resolve()),
        "--store", str(store_dir),
        "--size", sizes.name,
        "--seed", str(seed),
        "--part", str(part),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--spans", str(spans_file),
    )  # fmt: skip
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)


def run(work: Path, sizes: gen.Sizes, seed: int, seconds: float, trace: bool, tracer=None) -> Outcome:
    """Set-ups and thirds of the window alternate, each third in a new worker,
    so slow spells of the machine and of one process spread over the run."""
    parts = 1 if trace else SETUPS
    setups, digests, results = [], set(), []
    spans_file = work / "worker-spans.jsonl"
    for k in range(parts):
        t0 = time.perf_counter()
        store_dir = work / f"store-{k}"
        model = gen.write_store(sizes, seed, store_dir)
        proc = _spawn_worker(store_dir, sizes, seed, k, seconds / parts, trace, spans_file)
        try:
            if read_line(proc, 150.0).strip() != "ready":
                raise RuntimeError("churn worker did not get ready")
            setups.append(time.perf_counter() - t0)
            line = read_line(proc, seconds + 150.0)
        finally:
            stop(proc)
        if not line:
            raise RuntimeError("churn worker gave no result")
        results.append(json.loads(line))
        digests.add(gen.store_digest(store_dir))
        shutil.rmtree(store_dir)

    notes = [f"store {sizes.name}: {model.counts} digest={sorted(digests)[0][:16]}"]
    notes += [note for r in results for note in r["notes"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) + len(digests) - 1
    if trace:
        overhead = results[0]["overhead"]
        return Outcome({"trace.overhead_ratio": overhead}, attempted, failed, notes, spans.read_spans(spans_file))
    return Outcome(
        metrics={
            "ops_per_s": sum(r["reads"] for r in results) / sum(r["burst_s"] for r in results),
            "p50_ms": median([v for r in results for v in r["verdict_ms"]]),
            "slow_ms": median([v for r in results for v in r["explain_ms"]]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
        },
        attempted=attempted,
        failed=failed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# worker side


class Worker:
    def __init__(self, engine, model: gen.Model, seed: int, part: int = 0):
        self.engine = engine
        self.model = model
        self.pm = engine.prefix_map
        self.rng = random.Random(f"churn-{seed}-{part}")
        self.tag = f"churn-{seed}-{part}"
        self.taken = {gen.edge_key(e) for e in model.edges}
        self.explainable = [
            c
            for c in range(gen.ROOTS, model.concepts)
            if len(model.descendants(model.parent[c])) <= EXPLAIN_SUBTREE
        ]
        self.rounds = 0
        self.attempted = 0
        self.failures: list[str] = []

    def _reads(self) -> list[tuple[str, tuple]]:
        """The burst's calls with their prepared arguments, in seeded order."""
        model, rng, pm = self.model, self.rng, self.pm
        reads = []
        for kind, count in BURST.items():
            for _ in range(count):
                if kind == "explain":
                    # a term and its parent in one vocabulary: always a path to explain
                    c, k = rng.choice(self.explainable), rng.randrange(model.sizes.vocabularies)
                    reads.append((kind, (model.term(k, c), model.term(k, model.parent[c]))))
                elif kind in ("interop", "equivalence"):
                    reads.append((kind, gen.term_pair(rng, model)))
                else:
                    cw_id, source, _ = rng.choice(model.crosswalks)
                    doc = gen.instance_doc(rng, model, model.schema(source))
                    reads.append((kind, (documents.instance_from_doc(doc, pm), cw_id)))
        rng.shuffle(reads)
        return reads

    def _call(self, kind: str, args: tuple):
        term = self.engine.terminology
        if kind == "interop":
            return term.interop_level(*args)
        if kind == "equivalence":
            return term.equivalence_class(args[0], InteropLevel.REFERENTIAL)
        if kind == "explain":
            return term.explain_path(*args)
        if kind == "validate":
            return self.engine.schemas.validate_instance(args[0])
        return self.engine.crosswalks.transform_instance(args[0], args[1])

    def prepare(self) -> tuple:
        """A round's inputs: the batch, its TSV and mapping ids, and the reads."""
        batch = gen.new_edges(self.rng, self.model, BATCH, f"{self.tag}-{self.rounds}", self.taken)
        ids = [gen.mapping_id(e, self.pm) for e in batch]
        return batch, gen.tsv(batch), ids, self._reads()

    def step(self, tracer=None) -> dict:
        """One round: prepared, timed (traced if given a tracer), checked, undone."""
        prepared = self.prepare()
        if tracer is None:
            done = self._timed(prepared)
        else:
            with tracer.installed():
                done = self._timed(prepared, tracer)
        batch, _, ids, reads = prepared
        self._check(batch, done["report"], done["verdict"], reads, done["results"])
        for mapping_id in ids:
            if not self.engine.terminology.remove_mapping(mapping_id):
                self.failures.append(f"round {self.rounds}: mapping {mapping_id} was not stored")
        self.rounds += 1
        self.attempted += 2 + len(reads)
        return done

    def _timed(self, prepared: tuple, tracer=None) -> dict:
        """The write batch, its first verdict and the read burst, with timings."""
        batch, text, _, reads = prepared
        first = (batch[0].subject, batch[0].object)
        term = self.engine.terminology

        def timed(name, fn, *args):
            if tracer is None:
                return fn(*args)
            with tracer.op(name):
                return fn(*args)

        t0 = time.perf_counter()
        report = timed("churn write", term.import_mappings_tsv, text)
        verdict = timed("churn verdict", term.interop_level, *first)
        t1 = time.perf_counter()
        results, read_s = [], []
        for kind, args in reads:
            s = time.perf_counter()
            results.append(timed(f"churn {kind}", self._call, kind, args))
            read_s.append(time.perf_counter() - s)
        t2 = time.perf_counter()
        return {
            "verdict_s": t1 - t0,
            "read_s": read_s,
            "explain_s": [s for (kind, _), s in zip(reads, read_s) if kind == "explain"],
            "burst_s": t2 - t1,
            "wall_s": t2 - t0,
            "report": report,
            "verdict": verdict,
            "results": results,
        }

    def _check(self, batch, report, verdict, reads, results) -> None:
        where = f"round {self.rounds}"
        first = (batch[0].subject, batch[0].object)
        if report.accepted != BATCH or report.rejected:
            self.failures.append(f"{where}: import accepted {report.accepted}, rejected {report.rejected[:1]}")
        oracle = check.VerdictOracle(self.model.edges + batch)
        sampled = [(first, verdict)]
        interops = [(args, r) for (kind, args), r in zip(reads, results) if kind == "interop"]
        sampled += self.rng.sample(interops, min(CHECKED_VERDICTS, len(interops)))
        for (a, b), got in sampled:
            if check.verdict_triple(got) != oracle.level(a, b):
                self.failures.append(f"{where}: interop {a} {b} gave {check.verdict_triple(got)}, oracle {oracle.level(a, b)}")
        for (kind, args), got in zip(reads, results):
            if kind == "equivalence":
                want = oracle.referential_class(args[0])
                ok = {self.pm.compress(g.canonical) for g in got} == want
            elif kind == "explain":
                level = oracle.level(*args)[0]
                ok = got == [] if level in ("Identical", "None") else check.path_connects(got, *args, self.pm)
            elif kind == "validate":
                ok = got.valid
            elif kind == "transform":
                ok = got.schema_id == self.engine.crosswalks.crosswalk(args[1]).target_schema
            else:
                continue
            if not ok:
                self.failures.append(f"{where}: {kind} {args} gave a wrong answer")


def worker_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed(), tracer.op("churn setup"):
            engine = store.load_store(args.store)
            engine.terminology.compute_closure()
    else:
        engine = store.load_store(args.store)
        engine.terminology.compute_closure()
    print("ready", flush=True)

    worker = Worker(engine, gen.make_model(gen.SIZES[args.size], args.seed), args.seed, args.part)
    rounds = []
    overhead = 0.0
    if tracer is None:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(rounds) < MIN_ROUNDS:
            rounds.append(worker.step())
    else:
        plain = traced = 0.0
        for _ in range(TRACED_ROUNDS):
            plain += worker.step()["wall_s"]
            traced += worker.step(tracer)["wall_s"]
        overhead = traced / plain
        spans.write_spans(tracer.export(), Path(args.spans))
    result = {
        "verdict_ms": [r["verdict_s"] * 1000.0 for r in rounds],
        "explain_ms": [s * 1000.0 for r in rounds for s in r["explain_s"]],
        "reads": sum(len(r["read_s"]) for r in rounds),
        "burst_s": sum(r["burst_s"] for r in rounds),
        "attempted": worker.attempted,
        "failed": len(worker.failures),
        "overhead": overhead,
        "peak_rss_mb": peak_rss_mb(os.getpid()),
        "notes": [f"closure-churn: {worker.rounds} rounds", *worker.failures[:3]],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(worker_main(sys.argv[1:]))
