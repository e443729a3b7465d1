"""Error taxonomy shared by all registries, the store, the CLI, and the service.

Every error carries a stable machine-readable ``tag`` (used by the HTTP facade
as the error payload) and an ``http_status`` so the service layer never has to
maintain a separate mapping.
"""

from __future__ import annotations

from typing import Iterable


class SemintError(Exception):
    """Base class for all domain errors."""

    tag = "error"
    http_status = 422


# ---------------------------------------------------------------------------
# Malformed input (HTTP 400)


class InvalidGupri(SemintError):
    tag = "invalid-gupri"
    http_status = 400


class UnknownPredicate(SemintError):
    tag = "unknown-predicate"
    http_status = 400


class MissingRequiredColumn(SemintError):
    tag = "missing-required-column"
    http_status = 400


class MalformedRecord(SemintError):
    """A domain value violates a construction invariant (bad language tag, ...)."""

    tag = "malformed-record"
    http_status = 400


class MalformedContent(SemintError):
    tag = "malformed-content"
    http_status = 400


class NotUtf8(MalformedContent):
    """Bytes from outside the process that are not UTF-8 text."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line, self.reason = line, reason


def decode_utf8(data: bytes) -> str:
    """``data`` as UTF-8 text; bytes that are not UTF-8 raise :class:`NotUtf8`
    naming the line and byte of the first bad one."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise NotUtf8(line, f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def check_utf8(owner: str, texts: Iterable[object], error: type[SemintError] = MalformedRecord) -> None:
    """Raise ``error`` for a text of ``texts`` that UTF-8 cannot encode, one
    with a lone surrogate: no store file, reply or output could hold it.
    Anything in ``texts`` that is not a ``str`` is skipped."""
    for text in texts:
        if isinstance(text, str) and not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise error(f"{owner}: {text!r} is not UTF-8 text ({exc.reason})") from None


class MalformedDescriptor(SemintError):
    tag = "malformed-descriptor"
    http_status = 400


class EmptyQuery(SemintError):
    tag = "empty-query"
    http_status = 400


# ---------------------------------------------------------------------------
# Unknown identifiers (HTTP 404)


class UnknownTerm(SemintError):
    tag = "unknown-term"
    http_status = 404


class UnknownSchema(SemintError):
    tag = "unknown-schema"
    http_status = 404


class UnknownCrosswalk(SemintError):
    tag = "unknown-crosswalk"
    http_status = 404


class UnknownOperation(SemintError):
    tag = "unknown-operation"
    http_status = 404


class UnknownFdo(SemintError):
    tag = "unknown-fdo"
    http_status = 404


class UnknownSlot(SemintError):
    tag = "unknown-slot"
    http_status = 422


class UnknownUnit(SemintError):
    tag = "unknown-unit"
    http_status = 422


# ---------------------------------------------------------------------------
# Conflicting re-registrations


class ConflictingTermRecord(SemintError):
    tag = "conflicting-term-record"


class ConflictingSchema(SemintError):
    tag = "conflicting-schema"


class ConflictingCrosswalk(SemintError):
    tag = "conflicting-crosswalk"


class ConflictingDescriptor(SemintError):
    tag = "conflicting-descriptor"


class ConflictingFdo(SemintError):
    tag = "conflicting-fdo"


# ---------------------------------------------------------------------------
# Schema registration

class DuplicateSlotId(SemintError):
    tag = "duplicate-slot-id"


class NoRequiredSlot(SemintError):
    tag = "no-required-slot"


# ---------------------------------------------------------------------------
# Crosswalks


class IncompatibleAlignment(SemintError):
    tag = "incompatible-alignment"


class UncoveredRequiredTargetSlot(SemintError):
    tag = "uncovered-required-target-slot"


class InvalidCrosswalk(SemintError):
    tag = "invalid-crosswalk"


class SchemaMismatch(SemintError):
    tag = "schema-mismatch"


class JoinProducesUncoveredRequiredSlot(SemintError):
    tag = "join-produces-uncovered-required-slot"


class NotInvertible(SemintError):
    tag = "not-invertible"


class SourceInvalid(SemintError):
    tag = "source-invalid"


class TargetInvalid(SemintError):
    """Post-validation of a transform result failed; indicates a registry bug."""

    tag = "target-invalid"


class UnfillableRequiredTargetSlot(SemintError):
    tag = "unfillable-required-target-slot"


class NoMappedTerm(SemintError):
    tag = "no-mapped-term"


class ReferentialDisallowed(SemintError):
    tag = "referential-disallowed"


class HubNotInSet(SemintError):
    tag = "hub-not-in-set"


# ---------------------------------------------------------------------------
# Operations


class NonDecimalValue(SemintError):
    tag = "non-decimal-value"


# ---------------------------------------------------------------------------
# Store and service


class IoFailure(SemintError):
    tag = "io-failure"
    http_status = 500


class ParseFailure(SemintError):
    """A persisted file could not be parsed; carries file and line context."""

    tag = "parse-failure"
    http_status = 400

    def __init__(self, file: str, line: int, reason: str):
        super().__init__(f"{file}:{line}: {reason}")
        self.file = file
        self.line = line
        self.reason = reason


class BindFailure(SemintError):
    tag = "bind-failure"
    http_status = 500
