from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import Gupri, PrefixMap
from semint.errors import InvalidGupri

from oracles import compress_scan


@pytest.fixture
def pm() -> PrefixMap:
    return PrefixMap({"pato": "http://example.org/pato/", "ex": "http://example.org/things/"})


def test_curie_expansion(pm):
    assert pm.canonicalize("pato:weight") == "http://example.org/pato/weight"


def test_absolute_iri_passthrough(pm):
    iri = "http://example.org/pato/weight"
    assert pm.canonicalize(iri) == iri


def test_urn_passthrough(pm):
    assert pm.canonicalize("urn:operation:convert-unit") == "urn:operation:convert-unit"


def test_canonicalization_idempotent(pm):
    once = pm.canonicalize("pato:weight")
    assert pm.canonicalize(once) == once


def test_equality_is_canonical_byte_equality(pm):
    assert pm.gupri("pato:weight") == pm.gupri("http://example.org/pato/weight")
    assert pm.gupri("pato:weight") != pm.gupri("ex:weight")


def test_gupri_sorts_by_canonical(pm):
    gupris = sorted([pm.gupri("pato:weight"), pm.gupri("ex:apple")])
    assert [g.canonical for g in gupris] == [
        "http://example.org/pato/weight",
        "http://example.org/things/apple",
    ]


def test_unregistered_prefix_rejected(pm):
    with pytest.raises(InvalidGupri):
        pm.canonicalize("nope:thing")


def test_empty_identifier_rejected(pm):
    with pytest.raises(InvalidGupri):
        pm.canonicalize("")
    with pytest.raises(InvalidGupri):
        pm.canonicalize("   ")


def test_identifier_without_colon_rejected(pm):
    with pytest.raises(InvalidGupri):
        pm.canonicalize("justaword")


def test_whitespace_inside_rejected(pm):
    with pytest.raises(InvalidGupri):
        pm.canonicalize("pato:two words")


def test_every_whitespace_character_inside_rejected(pm):
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) == 29
    for space in spaces:
        for value in (f"pato:two{space}words", f"http://example.org/a{space}b"):
            with pytest.raises(InvalidGupri) as err:
                pm.canonicalize(value)
            assert err.value.tag == "invalid-gupri"


def test_compress_roundtrip(pm):
    canonical = pm.canonicalize("pato:weight")
    assert pm.compress(canonical) == "pato:weight"
    assert pm.canonicalize(pm.compress(canonical)) == canonical


def test_compress_prefers_longest_expansion():
    pm = PrefixMap(
        {
            "base": "http://example.org/",
            "pato": "http://example.org/pato/",
        }
    )
    assert pm.compress("http://example.org/pato/weight") == "pato:weight"
    assert pm.compress("http://example.org/other") == "base:other"


def test_compress_leaves_unknown_iri_alone(pm):
    assert pm.compress("http://elsewhere.org/x") == "http://elsewhere.org/x"


def test_compress_needs_nonempty_local_part(pm):
    # an IRI equal to a binding itself stays uncompressed
    assert pm.compress("http://example.org/pato/") == "http://example.org/pato/"


# expansions and IRIs over a two-letter path alphabet, so expansions nest,
# tie in length and equal the IRIs compressed
_BASE = "http://example.org/"
_paths = st.text(alphabet="ab/", max_size=5)
_bindings = st.lists(st.tuples(st.sampled_from(["a", "b", "ab", "b_1", "z"]), _paths), max_size=8)


@settings(deadline=None, max_examples=300)
@given(bindings=_bindings, paths=st.lists(_paths, max_size=6), suffixes=st.lists(_paths, max_size=4))
def test_compress_matches_sorted_scan(bindings, paths, suffixes):
    pm = PrefixMap()
    for prefix, path in bindings:  # a prefix bound again takes its new expansion
        pm.register(prefix, _BASE + path)
    expansions = [iri for _, iri in pm.bindings()]
    iris = [_BASE + p for p in paths] + expansions + [e + s for e in expansions for s in suffixes]
    for iri in iris:
        assert pm.compress(iri) == compress_scan(pm.bindings(), iri), iri


def test_bad_prefix_registration():
    pm = PrefixMap()
    with pytest.raises(InvalidGupri):
        pm.register("??", "http://example.org/")
    with pytest.raises(InvalidGupri):
        pm.register("ok", "not-an-iri")


def test_gupri_str(pm):
    assert str(pm.gupri("pato:weight")) == "http://example.org/pato/weight"
    assert Gupri("urn:x:1") == Gupri("urn:x:1")
