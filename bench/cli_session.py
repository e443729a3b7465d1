"""``cli-session``: a seeded script of fresh ``python -m semint.cli`` processes.

Commands run one after another against a private copy of store M. Each
block of 30 has 24 reads and a write at every fifth position, so any prefix
of the script that a run gets through has the same read/write mix. Every
process pays the full store load; verdict reads also rebuild the closure and
writes rewrite the whole store.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import spans
from common import BENCH, SETUPS, Launcher, Outcome, median, python_cmd
from semint import documents, store

#: the 24 reads of a block, in a fixed order so that every run, whatever its
#: seed, reaches the same kinds of command in the same time; seeds vary the
#: arguments. ``closure`` has the largest process; it comes early so that every
#: run reaches it and ``peak_rss_mb`` does not depend on how far a run gets
READS = (
    "interop", "find", "assess", "validate",
    "transform", "interop", "ops", "crosswalk-check",
    "plan", "closure", "find", "assess",
    "validate", "transform", "interop", "interop",
    "ops", "find", "crosswalk-check", "assess",
    "interop", "validate", "plan", "transform",
)  # fmt: skip
WRITES = ("import-mappings", "import-fdo", "import-crosswalk") * 2
BLOCK = 30
BLOCKS = 3
MAPPING_ROWS = 50
STARTUP_PROBES = 5
OVERHEAD_PAIRS = 4
#: half a block (12 reads, 3 writes): traced processes record about 50k spans each
TRACED_COMMANDS = BLOCK // 2
#: the window runs on until this many writes, one of each kind
MIN_WRITES = len(set(WRITES))


@dataclass
class Command:
    label: str
    write: bool
    argv: list[str]
    #: in-process (exit code, stdout) on the mirror engine; writes also apply
    expect: Callable[[object], tuple[int, str]]
    #: bytes of the file a write imports
    user_bytes: int = 0


def script(model: gen.Model, seed: int, inputs: Path) -> list[Command]:
    """``BLOCKS`` blocks of commands; input files are written to ``inputs``."""
    rng = random.Random(f"cli-{seed}")
    taken = {gen.edge_key(e) for e in model.edges}
    pending_crosswalks = [
        (f"cw:t{t}-s{i}-s{i + 2}", f"sch:t{t}-s{i}", f"sch:t{t}-s{i + 2}")
        for t in range(model.sizes.statement_types)
        for i in range(model.sizes.schemas_per_type - 2)
    ]
    rng.shuffle(pending_crosswalks)
    counter = iter(range(10**6))

    def file(name: str, text: str) -> Path:
        path = inputs / f"{next(counter):03d}-{name}"
        path.write_text(text, encoding="utf-8")
        return path

    def read(kind: str) -> Command:
        if kind == "interop":
            a, b = gen.term_pair(rng, model)

            def expect(e, a=a, b=b):
                ga, gb = e.prefix_map.gupri(a), e.prefix_map.gupri(b)
                return 0, documents.render(documents.verdict_to_doc(ga, gb, e.terminology.interop_level(ga, gb), e.prefix_map))

            return Command(kind, False, ["interop", a, b], expect)
        if kind == "find":
            term = rng.choice(model.fdo_terms)

            def expect(e, term=term):
                query = store.FindQuery(term=e.prefix_map.gupri(term), expand=store.ExpandMode.REFERENTIAL)
                found = [e.prefix_map.compress(g.canonical) for g in store.find(e, query)]
                return 0, documents.render({"results": found})

            return Command(kind, False, ["find", "--term", term, "--expand", "referential"], expect)
        if kind == "assess":
            fdo_id = rng.choice(model.fdo_ids)

            def expect(e, fdo_id=fdo_id):
                return 0, documents.render(documents.assessment_to_doc(e.fdos.assess_fdo(fdo_id), e.prefix_map))

            return Command(kind, False, ["assess", fdo_id], expect)
        if kind in ("validate", "transform"):
            cw_id, source, _ = rng.choice(model.crosswalks)
            doc = gen.instance_doc(rng, model, model.schema(source))
            if kind == "validate" and rng.random() < 0.34:
                doc["fills"].pop(model.schema(source).slots[0][0])  # invalid: exit code 1
            path = file(f"{kind}.json", json.dumps(doc))

            def expect(e, doc=doc, cw_id=cw_id, kind=kind):
                inst = documents.instance_from_doc(doc, e.prefix_map)
                if kind == "validate":
                    report = e.schemas.validate_instance(inst)
                    return (0 if report.valid else 1), documents.render(documents.validation_to_doc(report))
                out = e.crosswalks.transform_instance(inst, cw_id)
                return 0, documents.render(documents.instance_to_doc(out, e.prefix_map))

            argv = ["validate", str(path)] if kind == "validate" else ["transform", str(path), cw_id]
            return Command(kind, False, argv, expect)
        if kind == "ops":
            schema = rng.choice(model.schemas).curie

            def expect(e, schema=schema):
                entries, degree = e.operations.applicable_operations(schema, include_reachable=True)
                return 0, documents.render(documents.applicable_to_doc(entries, degree, e.prefix_map))

            return Command(kind, False, ["ops", "applicable", schema, "--reachable"], expect)
        if kind == "crosswalk-check":
            cw_id = rng.choice(model.crosswalks)[0]

            def expect(e, cw_id=cw_id):
                report = e.crosswalks.check_crosswalk(e.crosswalks.crosswalk(cw_id))
                return (0 if report.clean else 1), documents.render(documents.crosswalk_report_to_doc(report, e.prefix_map))

            return Command(kind, False, ["crosswalk", "check", cw_id], expect)
        if kind == "plan":
            group = rng.randrange(model.sizes.statement_types)
            members = [s.curie for s in model.schemas if s.group == group]
            schemas = sorted(rng.sample(members, min(4, len(members))))

            def expect(e, schemas=schemas):
                report = e.crosswalks.plan_crosswalks(schemas, strategy="pairwise")
                return 0, documents.render(documents.plan_to_doc(report, e.prefix_map))

            return Command(kind, False, ["plan", *schemas], expect)

        def expect(e):
            return 0, documents.render(e.terminology.compute_closure().to_doc())

        return Command(kind, False, ["closure"], expect)

    def write(kind: str, n: int) -> Command:
        if kind == "import-mappings":
            text = gen.tsv(gen.new_edges(rng, model, MAPPING_ROWS, f"cli-{seed}-{n}", taken))
            path = file("mappings.tsv", text)

            def expect(e, text=text):
                report = e.terminology.import_mappings_tsv(text.encode("utf-8"))
                return 0, documents.render(documents.import_report_to_doc(report))

            argv = ["import", "mappings", str(path)]
        elif kind == "import-fdo":
            doc = gen.fdo_doc(rng, model, f"fdo:cli-{n:04d}")
            text = json.dumps(doc)
            path = file("fdo.json", text)

            def expect(e, doc=doc):
                registered = e.fdos.register_fdo(documents.fdo_from_doc(doc, e.prefix_map))
                return 0, documents.render({"registered": e.prefix_map.compress(registered.canonical)})

            argv = ["import", "fdo", str(path)]
        else:
            cw_id, source, target = pending_crosswalks[n % len(pending_crosswalks)]
            doc = gen.crosswalk_doc(model, cw_id, source, target)
            text = json.dumps(doc)
            path = file("crosswalk.json", text)

            def expect(e, doc=doc):
                registered = e.crosswalks.register_crosswalk(documents.crosswalk_from_doc(doc, e.prefix_map))
                return 0, documents.render({"registered": e.prefix_map.compress(registered.canonical)})

            argv = ["import", "crosswalk", str(path)]
        return Command(kind, True, argv, expect, user_bytes=len(text.encode("utf-8")))

    commands: list[Command] = []
    writes = iter(range(10**6))
    for _ in range(BLOCKS):
        reads = iter(READS)
        for position in range(BLOCK):
            if position % 5 == 4:
                n = next(writes)
                commands.append(write(WRITES[n % len(WRITES)], n))
            else:
                commands.append(read(next(reads)))
    return commands


def mismatches(mirror, results) -> list[str]:
    """Replay the executed commands in order on ``mirror`` (a fresh load of the
    pristine store); one reason per process whose exit code or stdout differs."""
    bad = []
    for command, _, code, out, err in results:
        want_code, want_out = command.expect(mirror)
        if code != want_code or out != want_out.encode("utf-8"):
            bad.append(f"cli {command.label} ({' '.join(command.argv)}): exit {code}, stderr {err[-200:]!r}")
    return bad


def _cli(store_dir: Path, command: Command) -> list[str]:
    return python_cmd("-m", "semint.cli", "--store", str(store_dir), *command.argv)


def _traced_cli(store_dir: Path, command: Command, spans_file: Path) -> list[str]:
    wrapper = str(BENCH / "traced_cli.py")
    return python_cmd(wrapper, "--spans", str(spans_file), "--", "--store", str(store_dir), *command.argv)


def _file_states(root: Path) -> dict[str, tuple[int, int, int]]:
    states = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            states[str(path.relative_to(root))] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return states


def _setup(launcher: Launcher, work: Path, sizes: gen.Sizes, seed: int, k: int):
    """Generate store M, copy it for the script, warm the bytecode cache."""
    t0 = time.perf_counter()
    pristine = work / f"store-{k}"
    model = gen.write_store(sizes, seed, pristine)
    private = work / f"private-{k}"
    shutil.copytree(pristine, private)
    a, b = model.term(0, 0), model.term(1, 0)
    _, code, _, err, _ = launcher.run(python_cmd("-m", "semint.cli", "--store", str(private), "interop", a, b), work)
    if code != 0:
        raise RuntimeError(f"warm-up CLI call failed: {err.decode(errors='replace')}")
    return time.perf_counter() - t0, model, pristine, private


def run(work: Path, sizes: gen.Sizes, seed: int, seconds: float, trace: bool, tracer=None) -> Outcome:
    """Set-ups and thirds of the window alternate, so slow spells of the
    machine spread over the run; the script runs on the first set-up's copy.
    Every CLI process starts from a ``Launcher``, which gives its own peak RSS."""
    with Launcher(work) as launcher:
        return _session(launcher, work, sizes, seed, seconds, trace)


def _session(launcher: Launcher, work: Path, sizes: gen.Sizes, seed: int, seconds: float, trace: bool) -> Outcome:
    elapsed, model, pristine, private = _setup(launcher, work, sizes, seed, 0)
    setups, digests = [elapsed], {gen.store_digest(pristine)}
    inputs = work / "inputs"
    inputs.mkdir()
    commands = script(model, seed, inputs)
    notes = [f"store {sizes.name}: {model.counts} digest={sorted(digests)[0][:16]}"]

    results: list[tuple[Command, float, int, bytes, bytes]] = []
    extra: dict[str, float] = {}
    child_spans: list[list[dict]] = []
    if trace:
        written = user = 0
        for n, command in enumerate(commands[:TRACED_COMMANDS]):
            spans_file = work / f"spans-{n:03d}.jsonl"
            before = _file_states(private) if command.write else None
            results.append((command, *launcher.run(_traced_cli(private, command, spans_file), work)[:4]))
            child_spans.append(spans.read_spans(spans_file))
            if command.write:
                after = _file_states(private)
                written += sum(state[2] for path, state in after.items() if before.get(path) != state)
                user += command.user_bytes
        extra["store.bytes_written_per_user_byte"] = written / user
        probes, probe_failures = _probes(launcher, work, private, commands)
        extra.update(probes)
    else:
        window = peak_rss = 0.0
        pending = iter(commands)
        for k in range(SETUPS):
            if k:
                elapsed, _, other, _ = _setup(launcher, work, sizes, seed, k)
                setups.append(elapsed)
                digests.add(gen.store_digest(other))
            start = time.perf_counter()
            for command in pending:
                wall, code, out, err, rss = launcher.run(_cli(private, command), work)
                results.append((command, wall, code, out, err))
                peak_rss = max(peak_rss, rss)
                writes = sum(1 for r in results if r[0].write)
                last = k == SETUPS - 1
                if time.perf_counter() - start >= seconds / SETUPS and (not last or writes >= MIN_WRITES):
                    break
            window += time.perf_counter() - start

    bad = mismatches(store.load_store(pristine), results)
    notes.extend(bad[:3])
    failed = len(bad) + len(digests) - 1
    attempted = len(results) + len(digests) - 1

    if trace:
        attempted += STARTUP_PROBES + 2 * OVERHEAD_PAIRS
        return Outcome(extra, attempted, failed + probe_failures, notes, spans.concat(child_spans))

    reads = [wall * 1000.0 for command, wall, *_ in results if not command.write]
    writes = [wall * 1000.0 for command, wall, *_ in results if command.write]
    # whole cycles of the write kinds, so every run averages the same mix
    cycles = writes[: len(writes) // MIN_WRITES * MIN_WRITES]
    notes.append(f"cli-session: {len(reads)} reads, {len(writes)} writes in {window:.2f}s")
    return Outcome(
        metrics={
            "ops_per_s": len(results) / window,
            "p50_ms": median(reads),
            # the kinds differ in cost and a run has few writes: a median would
            # pick one sample of one kind, a mean over whole cycles uses them all
            "slow_ms": statistics.fmean(cycles),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
        },
        attempted=attempted,
        failed=failed,
        notes=notes,
    )


def _probes(launcher: Launcher, work: Path, private: Path, commands: list[Command]) -> tuple[dict[str, float], int]:
    """Start-up time of a usage-error call, traced/untraced wall ratio, failures."""
    failures = 0
    startup = []
    for _ in range(STARTUP_PROBES):
        wall, code, _, _, _ = launcher.run(python_cmd("-m", "semint.cli"), work)
        startup.append(wall * 1000.0)
        failures += code != 2
    plain = traced = 0.0
    reads = [c for c in commands if not c.write][:OVERHEAD_PAIRS]
    for n, command in enumerate(reads):
        wall_plain, _, out_plain, _, _ = launcher.run(_cli(private, command), work)
        wall_traced, _, out_traced, _, _ = launcher.run(_traced_cli(private, command, work / f"probe-{n}.jsonl"), work)
        plain += wall_plain
        traced += wall_traced
        failures += out_plain != out_traced
    return {"cli.startup_ms": median(startup), "trace.overhead_ratio": traced / plain}, failures
