"""Identifier handling: absolute IRIs, CURIEs, and explicit prefix maps.

Identifiers are canonicalized to their absolute form once, at the edge of the
system; everything downstream compares canonical strings byte-wise. Prefix
resolution is purely local configuration, never a network lookup.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidGupri, check_utf8

__all__ = ["Gupri", "PrefixMap", "is_absolute_iri", "local_name"]

# scheme://... style IRIs plus URNs; anything else with a colon is a CURIE
_IRI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://\S+$")
_URN_RE = re.compile(r"^urn:[A-Za-z0-9][A-Za-z0-9\-]{0,31}:\S+$", re.IGNORECASE)
_CURIE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.\-]*):(\S+)$")
_PREFIX_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")
# matches exactly the characters for which str.isspace() is true
_SPACE_RE = re.compile(r"\s")
#: the most strings one prefix map remembers the Gupri or the CURIE of; a
#: full memo is cleared, so a server fed ever new identifiers holds at most
#: this many
_MEMO_CAP = 1 << 16


def is_absolute_iri(value: str) -> bool:
    """True when the value needs no prefix expansion."""
    return bool(_IRI_RE.match(value) or _URN_RE.match(value))


def local_name(iri: str) -> str:
    """Trailing segment of an IRI, after the last ``#``, ``/``, or ``:``."""
    for sep in ("#", "/", ":"):
        if sep in iri:
            tail = iri.rsplit(sep, 1)[1]
            if tail:
                return tail
    return iri


@dataclass(frozen=True, order=True)
class Gupri:
    """A globally unique persistent resolvable identifier in canonical form.

    Construct via :meth:`PrefixMap.gupri`; two Gupris are equal iff their
    canonical absolute forms are byte-equal. Holding only absolute forms is
    what makes that equality sound, so construction enforces it, and that
    UTF-8 can encode them, since every file and reply holds them.
    """

    canonical: str

    def __post_init__(self):
        if not is_absolute_iri(self.canonical):
            raise InvalidGupri(f"not a canonical absolute identifier: {self.canonical!r}")
        if not self.canonical.isascii():
            check_utf8("identifier", (self.canonical,), InvalidGupri)

    def __str__(self) -> str:
        return self.canonical


class PrefixMap:
    """Registered prefix bindings used to expand CURIEs and compress IRIs."""

    def __init__(self, bindings: Mapping[str, str] | None = None):
        self._bindings: dict[str, str] = {}
        # the bindings in the order compress tries them: longest expansion
        # first, ties by prefix name, so the first match is the one it uses
        self._match_order: list[tuple[str, str]] = []
        # the Gupri of each string given to gupri, and the CURIE of each IRI
        # given to compress, both replaced by every register
        self._memo: dict[str, Gupri] = {}
        self._curies: dict[str, str] = {}
        if bindings:
            for prefix, iri in bindings.items():
                self.register(prefix, iri)

    def register(self, prefix: str, iri: str) -> None:
        if not _PREFIX_RE.match(prefix):
            raise InvalidGupri(f"invalid prefix {prefix!r}")
        if not is_absolute_iri(iri):
            raise InvalidGupri(f"prefix {prefix!r} must expand to an absolute IRI, got {iri!r}")
        self._bindings[prefix] = iri
        self._match_order = sorted(self._bindings.items(), key=lambda b: (-len(b[1]), b[0]))
        # after the bindings, so a call that takes a new memo reads them
        self._memo, self._curies = {}, {}

    def bindings(self) -> list[tuple[str, str]]:
        return sorted(self._bindings.items())

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._bindings

    def canonicalize(self, value: str) -> str:
        """Expand a CURIE or pass an absolute IRI through, idempotently."""
        if not isinstance(value, str):
            raise InvalidGupri(f"identifier must be a string, got {type(value).__name__}")
        value = value.strip()
        if not value:
            raise InvalidGupri("empty identifier")
        if _SPACE_RE.search(value):
            raise InvalidGupri(f"identifier contains whitespace: {value!r}")
        # a CURIE's prefix ends at the first colon
        prefix, _, local = value.partition(":")
        expansion = self._bindings.get(prefix)
        # a registered prefix matches the CURIE grammar's, so with a local
        # part the value is a CURIE; unless "//" follows the colon or the
        # prefix is "urn", it is no IRI or URN either, and no match is needed
        if expansion is None or not local or local.startswith("//") or prefix.lower() == "urn":
            if is_absolute_iri(value):
                return value
            if not _CURIE_RE.match(value):
                raise InvalidGupri(f"not an absolute IRI or CURIE: {value!r}")
            if expansion is None:
                raise InvalidGupri(f"unregistered prefix {prefix!r} in {value!r}")
        return expansion + local

    def gupri(self, value: str | Gupri) -> Gupri:
        """The Gupri of ``value``.

        A string's Gupri is remembered, under the string and under its
        canonical form, until the next :meth:`register` or until the memo
        fills and is cleared, so the mentions of an identifier share one
        object; an error is raised again on every call. The memo is taken
        before the bindings are read, so a Gupri built while a prefix is
        registered lands in the memo that the registration dropped.
        """
        if type(value) is not str:
            return value if isinstance(value, Gupri) else Gupri(self.canonicalize(value))
        memo = self._memo
        g = memo.get(value)
        if g is None:
            canonical = self.canonicalize(value)
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            g = memo.get(canonical)
            if g is None:
                g = memo[canonical] = Gupri(canonical)
            memo[value] = g
        return g

    def compress(self, iri: str) -> str:
        """CURIE form under the longest matching binding, or the IRI itself.

        Deterministic: longest expansion wins, ties broken by prefix name.
        The result is remembered as :meth:`gupri` remembers a Gupri: until
        the next :meth:`register`, or until the memo fills and is cleared;
        the memo is taken before the bindings are read.
        """
        memo = self._curies
        curie = memo.get(iri)
        if curie is None:
            curie = iri
            for prefix, expansion in self._match_order:
                if len(iri) > len(expansion) and iri.startswith(expansion):
                    curie = f"{prefix}:{iri[len(expansion):]}"
                    break
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[iri] = curie
        return curie
