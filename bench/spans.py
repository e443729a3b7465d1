"""In-memory span tracing of semint's layer entry points, from the outside.

The tracer replaces the listed module functions and class methods with
wrappers for the duration of a traced phase and restores them afterwards;
nothing under ``src/`` is edited. Each span records its name, start, end,
parent span and operation id (the benchmark's public call it belongs to).
Spans stay in memory until the run ends and are then written out as JSON
lines. Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import semint.cli
import semint.crosswalks
import semint.documents
import semint.fdo
import semint.identifiers
import semint.operations
import semint.schemas
import semint.store
import semint.terminology

PARSERS = (
    "term_from_doc",
    "schema_from_doc",
    "instance_from_doc",
    "crosswalk_from_doc",
    "operation_from_doc",
    "fdo_from_doc",
)

#: (owner object, attribute, span name); owners are modules or classes
ENTRY_POINTS = (
    (semint.identifiers.PrefixMap, "gupri", "identifiers.gupri"),
    (semint.identifiers.PrefixMap, "compress", "identifiers.compress"),
    (semint.terminology.TerminologyRegistry, "compute_closure", "terminology.compute_closure"),
    (semint.terminology.TerminologyRegistry, "import_mappings_tsv", "terminology.import_mappings_tsv"),
    (semint.terminology.TerminologyRegistry, "interop_level", "terminology.interop_level"),
    (semint.terminology.TerminologyRegistry, "equivalence_class", "terminology.equivalence_class"),
    (semint.terminology.TerminologyRegistry, "explain_path", "terminology.explain_path"),
    (semint.terminology.TerminologyRegistry, "mappings_between", "terminology.mappings_between"),
    (semint.terminology.TerminologyRegistry, "audit_term_fairness", "terminology.audit_term_fairness"),
    (semint.schemas.SchemaRegistry, "validate_instance", "schemas.validate_instance"),
    (semint.schemas.SchemaRegistry, "satisfies_constraint", "schemas.satisfies_constraint"),
    (semint.schemas.SchemaRegistry, "detect_schema_duplicates", "schemas.detect_schema_duplicates"),
    (semint.schemas.SchemaRegistry, "schemas_for_statement_type", "schemas.schemas_for_statement_type"),
    (semint.crosswalks.CrosswalkRegistry, "connected", "crosswalks.connected"),
    (semint.crosswalks.CrosswalkRegistry, "transform_instance", "crosswalks.transform_instance"),
    (semint.crosswalks.CrosswalkRegistry, "check_crosswalk", "crosswalks.check_crosswalk"),
    (semint.crosswalks.CrosswalkRegistry, "register_crosswalk", "crosswalks.register_crosswalk"),
    (semint.crosswalks.CrosswalkRegistry, "plan_crosswalks", "crosswalks.plan_crosswalks"),
    (semint.operations.OperationsRegistry, "applicable_operations", "operations.applicable_operations"),
    (semint.fdo.FdoRegistry, "assess_record", "fdo.assess_record"),
    (semint.fdo.FdoRegistry, "register_fdo", "fdo.register_fdo"),
    (semint.fdo.FdoRecord, "content_terms", "fdo.content_terms"),
    (semint.documents, "render", "documents.render"),
    (semint.documents, "render_line", "documents.render_line"),
    *((semint.documents, name, f"documents.{name}") for name in PARSERS),
    (semint.store, "load_store", "store.load_store"),
    (semint.store, "export_store", "store.export_store"),
    (semint.store, "find", "store.find"),
    (semint.cli, "main", "cli.main"),
)

TRACED_NAMES = tuple(name for _, _, name in ENTRY_POINTS)


def _closure_key(args, kwargs):
    min_confidence = kwargs.get("min_confidence", args[1] if len(args) > 1 else None)
    return (id(args[0]), min_confidence)


class Tracer:
    """Span recorder; wrappers are installed only inside :meth:`installed`."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._op_lock = threading.Lock()
        self._next_op = 0
        # last snapshot returned per (registry, min_confidence): a call that
        # returns any other object built a new snapshot. Kept across
        # installations, so a warm-up call made while installed primes it.
        self._last_snapshot: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None:
            with self._op_lock:
                op = self._next_op
                self._next_op += 1
        else:
            op = parent[4]
        # name, start, end, parent record, op id, child time, error, extra
        record = [name, time.perf_counter(), 0.0, parent, op, 0.0, False, None]
        self.spans.append(record)
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()
        parent = record[3]
        if parent is not None:
            parent[5] += record[2] - record[1]

    @contextmanager
    def op(self, name: str):
        """Root span for one public call the benchmark makes."""
        record = self._open(name)
        try:
            yield record
        except BaseException:
            record[6] = True
            raise
        finally:
            self._close(record)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[6] = True
                raise
            finally:
                tracer._close(record)
            record[7] = tracer._extra(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _extra(self, name: str, args, kwargs, result):
        if name == "terminology.compute_closure":
            key = _closure_key(args, kwargs)
            built = self._last_snapshot.get(key) is not result
            self._last_snapshot[key] = result
            return built
        if name == "terminology.import_mappings_tsv":
            return result.accepted + len(result.rejected)
        if name == "documents.render":
            return len(result.encode("utf-8"))
        if name == "store.find":
            return len(result)
        return None

    @contextmanager
    def installed(self):
        """Wrap every entry point while the block runs, then restore them."""
        originals = []
        for owner, attr, name in ENTRY_POINTS:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def export(self) -> list[dict]:
        """Spans as plain dicts with integer parent ids, in start order."""
        index = {id(r): i for i, r in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": r[0],
                "start": r[1],
                "end": r[2],
                "parent": index[id(r[3])] if r[3] is not None else None,
                "op": r[4],
                "self": (r[2] - r[1]) - r[5],
                "error": r[6],
                "extra": r[7],
            }
            for i, r in enumerate(self.spans)
        ]


def write_spans(spans: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as src:
        return [json.loads(line) for line in src if line.strip()]


def concat(groups: list[list[dict]]) -> list[dict]:
    """Join span lists from several processes, renumbering ids and parents."""
    out: list[dict] = []
    for group in groups:
        base = len(out)
        for span in group:
            span = dict(span)
            span["id"] += base
            if span["parent"] is not None:
                span["parent"] += base
            out.append(span)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

#: (name, unit); every traced function also gets ``<name>.errors``
NAMED_METRICS = (
    ("identifiers.gupri.calls", "count"),
    ("identifiers.gupri.self_ms", "ms"),
    ("identifiers.compress.self_ms", "ms"),
    ("terminology.compute_closure.calls", "count"),
    ("terminology.compute_closure.builds", "count"),
    ("terminology.snapshot_hit_ratio", "ratio"),
    ("terminology.compute_closure.build_ms", "ms"),
    ("terminology.import_mappings_tsv.self_ms", "ms"),
    ("terminology.import_mappings_tsv.rows", "count"),
    ("terminology.interop_level.p50_us", "us"),
    ("terminology.explain_path.self_ms", "ms"),
    ("terminology.mappings_between.self_ms", "ms"),
    ("schemas.validate_instance.calls", "count"),
    ("schemas.validate_instance.self_ms", "ms"),
    ("schemas.detect_schema_duplicates.self_ms", "ms"),
    ("crosswalks.connected.calls", "count/assessment"),
    ("crosswalks.connected.self_ms", "ms"),
    ("crosswalks.transform_instance.self_ms", "ms"),
    ("crosswalks.check_crosswalk.self_ms", "ms"),
    ("operations.applicable_operations.self_ms", "ms"),
    ("fdo.assess_record.calls", "count"),
    ("fdo.assess_record.self_ms", "ms"),
    ("documents.render.self_ms", "ms"),
    ("documents.render.bytes", "bytes"),
    ("documents.parse.self_ms", "ms"),
    ("store.load_store.self_ms", "ms"),
    ("store.export_store.self_ms", "ms"),
    ("store.bytes_written_per_user_byte", "ratio"),
    ("store.find.self_ms", "ms"),
    ("store.find.records_examined_per_result", "ratio"),
    ("service.gap_p50_ms", "ms"),
    ("service.gap_p99_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

#: metrics that the span aggregation does not compute; workloads supply them
#: where they apply and they read 0 elsewhere
SUPPLIED = (
    "store.bytes_written_per_user_byte",
    "service.gap_p50_ms",
    "service.gap_p99_ms",
    "cli.startup_ms",
    "trace.overhead_ratio",
)


def per_layer_spec() -> list[tuple[str, str]]:
    return list(NAMED_METRICS) + [(f"{name}.errors", "count") for name in TRACED_NAMES]


def _has_ancestor(spans: list[dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from spans, without the ``SUPPLIED`` ones."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for span in spans:
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + span["self"]
        errors[name] = errors.get(name, 0) + int(span["error"])
        durations.setdefault(name, []).append(span["end"] - span["start"])

    def ms(name: str) -> float:
        return self_s.get(name, 0.0) * 1000.0

    def extra_sum(name: str) -> float:
        return sum(s["extra"] or 0 for s in spans if s["name"] == name)

    closure_calls = calls.get("terminology.compute_closure", 0)
    builds = [
        s["end"] - s["start"]
        for s in spans
        if s["name"] == "terminology.compute_closure" and s["extra"]
    ]
    interop = durations.get("terminology.interop_level", [])
    assessments = calls.get("fdo.assess_record", 0)
    connected_in_assess = sum(
        1
        for s in spans
        if s["name"] == "crosswalks.connected" and _has_ancestor(spans, s, "fdo.assess_record")
    )
    find_results = extra_sum("store.find")
    examined = sum(
        1
        for s in spans
        if s["name"] == "fdo.content_terms" and _has_ancestor(spans, s, "store.find")
    )
    load_export = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in ("store.load_store", "store.export_store")
        and _has_ancestor(spans, s, "cli.main")
    )
    main_total = sum(durations.get("cli.main", []))

    out = {
        "identifiers.gupri.calls": calls.get("identifiers.gupri", 0),
        "identifiers.gupri.self_ms": ms("identifiers.gupri"),
        "identifiers.compress.self_ms": ms("identifiers.compress"),
        "terminology.compute_closure.calls": closure_calls,
        "terminology.compute_closure.builds": len(builds),
        "terminology.snapshot_hit_ratio": (closure_calls - len(builds)) / closure_calls
        if closure_calls
        else 0.0,
        "terminology.compute_closure.build_ms": statistics.median(builds) * 1000.0 if builds else 0.0,
        "terminology.import_mappings_tsv.self_ms": ms("terminology.import_mappings_tsv"),
        "terminology.import_mappings_tsv.rows": extra_sum("terminology.import_mappings_tsv"),
        "terminology.interop_level.p50_us": statistics.median(interop) * 1e6 if interop else 0.0,
        "terminology.explain_path.self_ms": ms("terminology.explain_path"),
        "terminology.mappings_between.self_ms": ms("terminology.mappings_between"),
        "schemas.validate_instance.calls": calls.get("schemas.validate_instance", 0),
        "schemas.validate_instance.self_ms": ms("schemas.validate_instance"),
        "schemas.detect_schema_duplicates.self_ms": ms("schemas.detect_schema_duplicates"),
        "crosswalks.connected.calls": connected_in_assess / assessments if assessments else 0.0,
        "crosswalks.connected.self_ms": ms("crosswalks.connected"),
        "crosswalks.transform_instance.self_ms": ms("crosswalks.transform_instance"),
        "crosswalks.check_crosswalk.self_ms": ms("crosswalks.check_crosswalk"),
        "operations.applicable_operations.self_ms": ms("operations.applicable_operations"),
        "fdo.assess_record.calls": assessments,
        "fdo.assess_record.self_ms": ms("fdo.assess_record"),
        "documents.render.self_ms": ms("documents.render"),
        "documents.render.bytes": extra_sum("documents.render"),
        "documents.parse.self_ms": sum(ms(f"documents.{p}") for p in PARSERS),
        "store.load_store.self_ms": ms("store.load_store"),
        "store.export_store.self_ms": ms("store.export_store"),
        "store.find.self_ms": ms("store.find"),
        "store.find.records_examined_per_result": examined / find_results if find_results else 0.0,
        "cli.main.self_ms": (main_total - load_export) * 1000.0,
    }
    for name in TRACED_NAMES:
        out[f"{name}.errors"] = errors.get(name, 0)
    return out


def per_layer(spans: list[dict], supplied: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit; absent supplied values read 0."""
    values = aggregate(spans)
    for name in SUPPLIED:
        values[name] = supplied.get(name, 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_spec()}
