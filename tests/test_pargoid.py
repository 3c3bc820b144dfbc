import pytest

from pargoids import pargoid
from pargoids.errors import InputError
from pargoids.pargoid import ElementId, Pargoid, apply, less_than, parse, serialize

import oracles


def test_construction_and_lookup():
    g = oracles.three()
    assert g.size == 3
    assert g.names == ("a", "b", "c")
    assert g.element("b") == ElementId(1, "b")
    assert g.element(2) == ElementId(2, "c")
    assert g.elements() == (ElementId(0, "a"), ElementId(1, "b"), ElementId(2, "c"))
    with pytest.raises(InputError):
        g.element("z")
    with pytest.raises(InputError):
        g.element(3)
    for bad in (1.0, None):
        with pytest.raises(InputError, match="not an integer"):
            g.element(bad)


def test_construction_rejects_bad_names_and_entries():
    with pytest.raises(InputError):
        Pargoid((), {})
    with pytest.raises(InputError):
        Pargoid(("a", "a"), {})
    with pytest.raises(InputError):
        Pargoid(("a b",), {})
    with pytest.raises(InputError):
        Pargoid(("a",), {(0, 1): 0})


def test_pargoid_is_immutable():
    g = oracles.three()
    with pytest.raises(AttributeError):
        g.names = ("x",)
    src = {(0, 0): 0}
    g2 = Pargoid(("a",), src)
    src.clear()
    assert g2.table == {(0, 0): 0}


def test_apply():
    g = oracles.three()
    assert apply(g, 0, 0) == ElementId(0, "a")
    assert apply(g, g.element("b"), g.element("c")) == ElementId(2, "c")
    assert apply(g, 1, 1) is None
    gv = oracles.void2()
    assert apply(gv, 0, 1) is None
    # 1.0 == 1 and hashes alike, so it must be refused, not looked up
    for bad in (1.0, None):
        with pytest.raises(InputError, match="not an integer"):
            pargoid._ix(g, bad)
        with pytest.raises(InputError, match="not an integer"):
            apply(g, 0, bad)


def test_less_than_fixture_values():
    g3 = oracles.three()
    # a.a = a satisfies both disjuncts
    assert less_than(g3, 0, 0)
    g6 = oracles.six()
    a, b = g6.element("a").index, g6.element("b").index
    assert less_than(g6, b, a)
    assert not less_than(g6, a, b)


def test_less_than_agrees_with_table_scan():
    for _, g in oracles.arbitrary_batch(30, (1, 2, 3, 4, 5), (0.1, 0.4, 0.8), 7000):
        for a in range(g.size):
            for b in range(g.size):
                expected = (a, b) in g.table or any(
                    left == a and res == b for (left, _), res in g.table.items())
                assert less_than(g, b, a) == expected


def test_parse_text():
    g = parse("elements: x\n")
    assert g.size == 1 and g.table == {}
    g = parse(b"elements: a b\n# comment\na b = b  # trailing\n")
    assert g.table == {(0, 1): 1}


def test_parse_text_errors():
    with pytest.raises(InputError) as exc:
        parse("elements: a\na a = b\n")
    assert exc.value.line == 2
    assert "unknown element" in exc.value.message
    with pytest.raises(InputError):
        parse("")
    with pytest.raises(InputError):
        parse("a b = c\n")
    with pytest.raises(InputError):
        parse("elements: a b\na b\n")
    with pytest.raises(InputError):
        parse("elements: a\na a = a\na a = a\n")
    with pytest.raises(InputError):
        parse("elements: a a\n")


def test_parse_json():
    g = parse('{"elements": ["a", "b"], "products": [["a", "b", "b"]]}', "json")
    assert g.names == ("a", "b")
    assert g.table == {(0, 1): 1}
    g = parse('{"elements": ["x"]}', "json")
    assert g.table == {}


def test_parse_json_errors():
    with pytest.raises(InputError) as exc:
        parse("{not json", "json")
    assert exc.value.line == 1
    with pytest.raises(InputError):
        parse('{"products": []}', "json")
    with pytest.raises(InputError):
        parse('{"elements": ["a"], "products": [["a", "a"]]}', "json")
    with pytest.raises(InputError):
        parse('{"elements": ["a"], "products": [["a", "a", "z"]]}', "json")
    # Pargoid checks JSON element names, with the text format's messages
    for doc, message in (('{"elements": ["a", "a"]}', "duplicate element name 'a'"),
                         ('{"elements": ["a b"]}', "invalid element name 'a b'"),
                         ('{"elements": []}', "a pargoid needs at least one element")):
        with pytest.raises(InputError) as exc:
            parse(doc, "json")
        assert str(exc.value) == message
    with pytest.raises(InputError):
        parse("elements: a\n", "yaml")


def test_serialize_round_trip():
    assert serialize(oracles.single()) == b"elements: x\n"
    for g in (oracles.three(), oracles.six(), oracles.void2(), oracles.chain3()):
        assert parse(serialize(g, "text"), "text") == g
        assert parse(serialize(g, "json"), "json") == g
    for _, g in oracles.arbitrary_batch(20, (1, 3, 5), (0.0, 0.5, 1.0), 7100):
        assert parse(serialize(g, "text"), "text") == g
        assert parse(serialize(g, "json"), "json") == g


def test_serialize_is_canonical():
    g = Pargoid(("b", "a"), {(1, 0): 0, (0, 0): 1})
    text = serialize(g).decode()
    # declaration order preserved, product lines sorted by names
    assert text == "elements: b a\na b = b\nb b = a\n"


def test_product_triples_sorted():
    g = oracles.six()
    assert pargoid.product_triples(g) == [
        ("a", "b", "ab"), ("ab", "d", "d"), ("c", "b", "cb")]
