from __future__ import annotations

import importlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semint import Gupri, PrefixMap, identifiers, load_store
from semint.errors import InvalidGupri

from oracles import canonicalize_by_grammar, compress_scan


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


#: prefixes that read as a URN namespace or an IRI scheme too, and the
#: pieces of an identifier around its first colon: "//" after it makes an IRI
#: of an IRI scheme, and a URN needs a namespace and a second colon
_GRAMMAR_PREFIXES = ["ex", "urn", "URN", "http", "a_b", "x-1"]
_identifiers = st.builds(
    lambda head, colon, tail: head + colon + "".join(tail),
    st.sampled_from(_GRAMMAR_PREFIXES + ["Urn", "nope", "_", "1x", "a.b", ""]),
    st.sampled_from([":", ":", ""]),
    st.lists(st.sampled_from(["//", "/", "c", "isbn:", ":", "#", "x-1", "."]), max_size=3),
)


@settings(deadline=None, max_examples=400)
@given(prefixes=st.lists(st.sampled_from(_GRAMMAR_PREFIXES), unique=True), value=_identifiers)
@example(prefixes=["urn"], value="urn:isbn:c")
@example(prefixes=["URN"], value="URN:isbn:c")
@example(prefixes=["urn"], value="urn:c")
@example(prefixes=["http"], value="http://c")
@example(prefixes=["http"], value="http://")
@example(prefixes=["http"], value="http:/c")
@example(prefixes=["a_b"], value="a_b://c")
@example(prefixes=["ex"], value="ex:")
def test_canonicalize_matches_the_grammars(prefixes, value):
    bindings = {prefix: f"http://example.org/{prefix}/" for prefix in prefixes}
    pm = PrefixMap(bindings)
    try:
        expected = canonicalize_by_grammar(bindings, value)
    except InvalidGupri:
        with pytest.raises(InvalidGupri):
            pm.canonicalize(value)
    else:
        assert pm.canonicalize(value) == expected


def test_bad_prefix_registration():
    pm = PrefixMap()
    with pytest.raises(InvalidGupri):
        pm.register("??", "http://example.org/")
    with pytest.raises(InvalidGupri):
        pm.register("ok", "not-an-iri")


def test_gupri_str(pm):
    assert str(pm.gupri("pato:weight")) == "http://example.org/pato/weight"
    assert Gupri("urn:x:1") == Gupri("urn:x:1")


# each string's Gupri is remembered


def test_gupri_is_one_object_per_identifier(pm):
    assert pm.gupri("ex:a") is pm.gupri("ex:a")
    # a CURIE and its expansion share one object too
    assert pm.gupri("http://example.org/things/a") is pm.gupri("ex:a")
    assert pm.gupri(" ex:a ") is pm.gupri("ex:a")


def test_register_drops_remembered_gupris(pm):
    before = pm.gupri("ex:a")
    pm.register("ex", "http://example.org/other/")
    assert pm.gupri("ex:a").canonical == "http://example.org/other/a"
    assert before.canonical == "http://example.org/things/a"


def test_register_drops_remembered_curies(pm):
    iri = "http://example.org/things/deep/a"
    assert pm.compress(iri) == "ex:deep/a"
    pm.register("deep", "http://example.org/things/deep/")
    assert pm.compress(iri) == "deep:a"
    pm.register("deep", "http://example.org/elsewhere/")
    assert pm.compress(iri) == "ex:deep/a"


def test_identifier_utf8_cannot_encode_is_invalid(pm):
    for value in ("ex:a\udcff", "http://example.org/\ud800"):
        for _ in range(2):
            with pytest.raises(InvalidGupri, match="not UTF-8 text"):
                pm.gupri(value)
    assert pm.gupri("ex:\u00e9").canonical == "http://example.org/things/\u00e9"


def test_invalid_identifier_raises_on_every_call(pm):
    for _ in range(3):
        with pytest.raises(InvalidGupri):
            pm.gupri("nope:thing")
    pm.register("nope", "http://example.org/nope/")
    assert pm.gupri("nope:thing").canonical == "http://example.org/nope/thing"


@pytest.mark.parametrize("value", [["x"], {"x": 1}, None, 7])
def test_gupri_of_a_non_string_is_invalid(pm, value):
    for _ in range(2):
        with pytest.raises(InvalidGupri):
            pm.gupri(value)


def test_full_memo_is_cleared_and_still_answers(pm, monkeypatch):
    monkeypatch.setattr(identifiers, "_MEMO_CAP", 2)
    first = pm.gupri("ex:n0")
    for _ in range(2):
        for k in range(7):
            assert pm.gupri(f"ex:n{k}").canonical == f"http://example.org/things/n{k}"
    again = pm.gupri("ex:n0")
    assert again == first and again is not first  # built again after a clear
    for _ in range(2):
        for k in range(7):
            assert pm.compress(f"http://example.org/things/n{k}") == f"ex:n{k}"


def test_gupri_during_registrations_never_keeps_a_stale_expansion(pm):
    # a Gupri built under the old binding while a registration runs must not
    # be served once the registration is done
    names = [f"ex:n{k}" for k in range(40)]
    expansions = ["http://example.org/one/", "http://example.org/two/"]
    stop = threading.Event()

    def read() -> int:
        calls = 0
        while not stop.is_set():
            for name in names:
                pm.gupri(name)
                calls += 1
        return calls

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so calls and registrations overlap
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            readers = [pool.submit(read) for _ in range(4)]
            try:
                for k in range(400):
                    expansion = expansions[k % 2]
                    pm.register("ex", expansion)
                    assert all(pm.gupri(name).canonical == expansion + name[3:] for name in names)
            finally:
                stop.set()
            assert all(f.result(timeout=60) > 0 for f in readers)
    finally:
        sys.setswitchinterval(interval)


def test_compress_during_registrations_never_keeps_a_stale_curie(pm):
    # a CURIE found under the old bindings while a registration runs must not
    # be served once the registration is done
    iris = [f"http://example.org/one/n{k}" for k in range(40)]
    stop = threading.Event()

    def read() -> int:
        calls = 0
        while not stop.is_set():
            for iri in iris:
                pm.compress(iri)
                calls += 1
        return calls

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so calls and registrations overlap
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            readers = [pool.submit(read) for _ in range(4)]
            try:
                for k in range(400):
                    bound = k % 2 == 0
                    pm.register("one", "http://example.org/one/" if bound else "http://example.org/none/")
                    assert all(pm.compress(iri) == (f"one:{iri[23:]}" if bound else iri) for iri in iris)
            finally:
                stop.set()
            assert all(f.result(timeout=60) > 0 for f in readers)
    finally:
        sys.setswitchinterval(interval)


def test_loaded_store_holds_one_gupri_per_identifier(tmp_path, monkeypatch):
    # the benchmark's generator writes the seeded tiny store
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    gen.write_store(gen.SIZES["tiny"], 1, tmp_path / "store")
    engine = load_store(tmp_path / "store")
    gupris = [end for m in engine.terminology.mappings() for end in (m.subject, m.object)]
    gupris += [t.id for t in engine.terminology.terms()]
    assert len(gupris) > 600
    assert len({id(g) for g in gupris}) == len({g.canonical for g in gupris})
