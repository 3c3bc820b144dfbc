import ast
import json
from pathlib import Path

import pytest

from pargoids import typability, verifier
from pargoids.errors import InputError
from pargoids.pargoid import Pargoid
from pargoids.types import Arrow, Ground, Typing, parse_type
from pargoids.verifier import parse_typing, serialize_typing, typing_isomorphic, verify

import oracles


def six_typing(g):
    return parse_typing(g, oracles.FIXTURES.joinpath("six-typing.json").read_bytes())


def test_six_typing_accepted_in_both_modes():
    g = oracles.six()
    typing = six_typing(g)
    report = verify(g, typing)
    assert report.accepted and report.accepted_strong
    assert report.failures == ()
    assert report.axiom1_totality_ok


def test_altered_typing_rejected():
    g = oracles.six()
    typing = six_typing(g)
    alt = list(typing.types)
    alt[g.element("c").index] = alt[g.element("a").index]
    report = verify(g, Typing(tuple(alt)))
    assert not report.accepted
    assert not report.axiom1_forward_ok
    assert [v.check for v in report.failures] == ["axiom1-forward"]
    assert "c b = cb" in report.failures[0].detail


def test_self_application_is_untypable_by_axiom():
    # a.a = a forces type(a) to be its own antecedent; any typing fails
    g = oracles.three()
    for types in (
        (Ground("g0"),) * 3,
        (Arrow(Ground("g0"), Ground("g0")), Ground("g0"), Ground("g1")),
        (parse_type("(g0 -> g0) -> g0"), Ground("g1"), Ground("g2")),
    ):
        report = verify(g, Typing(types))
        assert not report.accepted


def test_totality_only_counts_in_strong_mode():
    g = oracles.six()
    typing = six_typing(g)
    table = dict(g.table)
    del table[(g.element("ab").index, g.element("d").index)]
    trimmed = Pargoid(g.names, table)
    report = verify(trimmed, typing)
    assert report.accepted
    assert not report.axiom1_totality_ok
    assert not report.accepted_strong
    assert [v.check for v in report.failures] == ["axiom1-totality"]
    assert "ab d diverges" in report.failures[0].detail


def test_totality_failures_in_element_order():
    # f misses two arguments of the matching type and g misses one
    g = Pargoid(("f", "w", "x", "y", "v", "g"), {(0, 3): 4})
    a, b = Ground("g0"), Ground("g1")
    fun = Arrow(a, b)
    report = verify(g, Typing((fun, a, a, a, b, Arrow(fun, b))))
    assert report.accepted and not report.accepted_strong
    assert [v.detail for v in report.failures] == [
        "f w diverges despite matching types g0 -> g1 and g0",
        "f x diverges despite matching types g0 -> g1 and g0",
        "g f diverges despite matching types (g0 -> g1) -> g1 and g0 -> g1",
    ]


def test_strictness_violation_reported():
    g = oracles.void2()
    types = (Arrow(Ground("g0"), Ground("g1")), Arrow(Ground("g0"), Ground("g1")))
    report = verify(g, Typing(types))
    assert not report.strictness_ok
    assert not report.accepted
    checks = {v.check for v in report.failures}
    assert checks == {"strictness"}
    # failures come in order of the rendered inhabited type, and antecedent
    # before consequent within one type
    y, z = Ground("y"), Ground("z")
    types = (Arrow(z, y), Arrow(Arrow(y, Ground("x")), y), Ground("x"))
    report = verify(Pargoid(("p", "q", "r"), {}), Typing(types))
    assert not report.strictness_ok
    assert [(v.check, v.detail) for v in report.failures] == [
        ("strictness", "type (y -> x) -> y is inhabited but its component y -> x is not"),
        ("strictness", "type (y -> x) -> y is inhabited but its component y is not"),
        ("strictness", "type z -> y is inhabited but its component z is not"),
        ("strictness", "type z -> y is inhabited but its component y is not"),
    ]


def test_verify_input_errors():
    g = oracles.six()
    with pytest.raises(InputError):
        verify(g, Typing((Ground("g0"),)))
    with pytest.raises(InputError):
        verify(oracles.void2(), Typing((Ground("g0"), None)))


def test_typing_isomorphic():
    g = oracles.six()
    constructed = typability.decide(g).typing
    reference = six_typing(g)
    assert typing_isomorphic(constructed, reference)
    assert typing_isomorphic(reference, constructed)
    assert typing_isomorphic(constructed, constructed)

    t_split = Typing((Ground("g0"), Ground("g1")))
    t_same = Typing((Ground("g0"), Ground("g0")))
    assert not typing_isomorphic(t_same, t_split)
    assert not typing_isomorphic(t_split, t_same)
    assert typing_isomorphic(t_split, Typing((Ground("u"), Ground("w"))))

    arrow = Typing((Arrow(Ground("g0"), Ground("g1")), Ground("g0")))
    assert not typing_isomorphic(arrow, t_split)
    with pytest.raises(InputError):
        typing_isomorphic(t_split, six_typing(g))


def test_verify_and_isomorphism_on_deep_types():
    g = oracles.six()
    chain = parse_type(" -> ".join(["g"] * 901))
    types = [Ground("g")] * g.size
    types[g.element("a").index] = chain
    report = verify(g, Typing(tuple(types)))
    assert not report.accepted_strong
    assert not report.axiom1_forward_ok and not report.strictness_ok
    assert "a b = ab: product has type g, expected g -> g" in "".join(
        v.detail for v in report.failures)

    # tree size 2^61 - 1; matched pair by pair, not node by node
    deep = Typing((oracles.doubling_type(60, "u"), Ground("u")))
    renamed = Typing((oracles.doubling_type(60, "w"), Ground("w")))
    assert typing_isomorphic(deep, renamed)
    for other in (Typing((oracles.doubling_type(60, "w"), Ground("u"))),
                  Typing((oracles.doubling_type(59, "w"), Ground("w")))):
        assert not typing_isomorphic(deep, other)


def test_parse_typing_errors():
    g = oracles.void2()
    with pytest.raises(InputError):
        parse_typing(g, b"{")
    with pytest.raises(InputError):
        parse_typing(g, b"[]")
    with pytest.raises(InputError):
        parse_typing(g, b'{"types": {"x": "g0"}}')
    with pytest.raises(InputError):
        parse_typing(g, b'{"types": {"x": "g0", "y": 3}}')
    with pytest.raises(InputError):
        parse_typing(g, b'{"types": {"x": "g0", "y": "g0", "z": "g0"}}')
    with pytest.raises(InputError):
        parse_typing(g, b'{"types": {"x": "g0", "y": "-> g0"}}')


def test_serialize_parse_round_trip():
    g = oracles.six()
    typing = typability.decide(g).typing
    data = serialize_typing(g, typing)
    again = parse_typing(g, data)
    assert again.types == typing.types
    doc = json.loads(data)
    assert list(doc["types"]) == list(g.names)


def test_verifier_imports_nothing_from_the_pipeline():
    # the verifier is the oracle of the decision pipeline, so every
    # pargoids module it imports, at the top or in a function, is one the
    # pipeline builds on and never part of it
    imported = set()
    for node in ast.walk(ast.parse(Path(verifier.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("pargoids" if node.level else "", node.module)))
            names = ([f"pargoids.{a.name}" for a in node.names] if module == "pargoids"
                     else [module])
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        imported.update(name.split(".")[1] for name in names
                        if name.startswith("pargoids."))
    assert imported <= {"errors", "pargoid", "types"}
