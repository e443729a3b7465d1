"""Semantic interoperability engine.

Typed entity mappings with closure semantics, statement schemas with
slot/role/constraint structure, crosswalks that translate instances between
schemas, an operations registry for machine-actionability, and a FAIR-record
assessor, all over a plain-text store with a CLI and an HTTP facade.

Importing the package imports none of its modules: each public name, and
each module named in ``_EXPORTS`` as ``semint.<module>``, is imported on its
first use (PEP 562), so a process pays only for the services it runs.
"""

import importlib

__version__ = "0.1.0"

#: each module and the public names it defines
_EXPORTS = {
    "crosswalks": (
        "AlignmentStatus", "Crosswalk", "CrosswalkLevel", "CrosswalkProvenance", "CrosswalkRegistry",
        "CrosswalkReport", "PlanReport", "SlotAlignment", "identity_crosswalk",
    ),
    "engine": ("Engine",),
    "errors": ("SemintError",),
    "fdo": ("AssessmentReport", "CertaintyLevel", "FdoRecord", "FdoRegistry", "StatementCategory"),
    "identifiers": ("Gupri", "PrefixMap"),
    "operations": (
        "ActionabilityClass", "OperationDescriptor", "OperationKind", "OperationParam", "OperationsRegistry",
        "XInteropStatus",
    ),
    "schemas": (
        "DatatypeTag", "SchemaRegistry", "SlotFill", "SlotKind", "SlotSpec", "StatementInstance",
        "StatementSchema", "ValidationReport",
    ),
    "store": ("ExpandMode", "FindQuery", "export_store", "find", "init_store", "load_store"),
    "terminology": (
        "EntityMapping", "InteropLevel", "InteropVerdict", "MappingPredicate", "ReferentKind", "TermRecord",
        "TerminologyRegistry",
    ),
}  # fmt: skip

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
