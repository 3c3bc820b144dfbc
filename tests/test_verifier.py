import json

import pytest

from pargoids import typability
from pargoids.congruence import leibniz
from pargoids.errors import InputError
from pargoids.pargoid import Pargoid
from pargoids.polyclone import classify, compute_clone, format_term
from pargoids.types import Arrow, Ground, Typing, parse_type
from pargoids.verifier import (lemma1_check, parse_typing, serialize_typing,
                               typing_isomorphic, verify)

import oracles


def six_typing(g):
    return parse_typing(g, oracles.FIXTURES.joinpath("six-typing.json").read_bytes())


def test_six_typing_accepted_in_both_modes():
    g = oracles.six()
    typing = six_typing(g)
    literal = verify(g, typing, "literal")
    strong = verify(g, typing, "strong")
    assert literal.accepted and strong.accepted
    assert literal.failures == () and strong.failures == ()
    assert strong.axiom1_totality_ok


def test_altered_typing_rejected():
    g = oracles.six()
    typing = six_typing(g)
    alt = list(typing.types)
    alt[g.element("c").index] = alt[g.element("a").index]
    report = verify(g, Typing(tuple(alt), {}), "literal")
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
        report = verify(g, Typing(types, {}), "literal")
        assert not report.accepted


def test_totality_only_counts_in_strong_mode():
    g = oracles.six()
    typing = six_typing(g)
    table = dict(g.table)
    del table[(g.element("ab").index, g.element("d").index)]
    trimmed = Pargoid(g.names, table)
    literal = verify(trimmed, typing, "literal")
    strong = verify(trimmed, typing, "strong")
    assert literal.accepted
    assert not literal.axiom1_totality_ok
    assert not strong.accepted
    assert [v.check for v in strong.failures] == ["axiom1-totality"]
    assert "ab d diverges" in strong.failures[0].detail


def test_strictness_violation_reported():
    g = oracles.void2()
    types = (Arrow(Ground("g0"), Ground("g1")), Arrow(Ground("g0"), Ground("g1")))
    report = verify(g, Typing(types, {}), "literal")
    assert not report.strictness_ok
    assert not report.accepted
    checks = {v.check for v in report.failures}
    assert checks == {"strictness"}


def test_verify_input_errors():
    g = oracles.six()
    with pytest.raises(InputError):
        verify(g, Typing((Ground("g0"),), {}), "literal")
    with pytest.raises(InputError):
        verify(g, six_typing(g), "loose")
    with pytest.raises(InputError):
        verify(oracles.void2(), Typing((Ground("g0"), None), {}), "literal")


def test_lemma1_fixture_cases():
    g6 = oracles.six()
    clone6 = classify(compute_clone(g6))
    varpi6 = leibniz(g6, clone6)
    decision = typability.decide(g6)
    assert lemma1_check(g6, decision.typing, clone6, varpi6) == (True, None)

    gv = oracles.void2()
    clonev = classify(compute_clone(gv))
    varpiv = leibniz(gv, clonev)
    typing = Typing((Ground("g0"), Ground("g0")), {})
    assert lemma1_check(gv, typing, clonev, varpiv) == (True, None)


def test_lemma1_detects_profile_split():
    g = oracles.three()
    clone = classify(compute_clone(g))
    varpi = leibniz(g, clone)
    ok, (a, b, sep) = lemma1_check(g, Typing((Ground("g0"),) * 3, {}), clone, varpi)
    assert not ok
    assert (a.name, b.name) == ("a", "b")
    assert format_term(sep.witness) == "(prod var var)"


def test_typing_isomorphic():
    g = oracles.six()
    constructed = typability.decide(g).typing
    reference = six_typing(g)
    assert typing_isomorphic(constructed, reference)
    assert typing_isomorphic(reference, constructed)
    assert typing_isomorphic(constructed, constructed)

    t_split = Typing((Ground("g0"), Ground("g1")), {})
    t_same = Typing((Ground("g0"), Ground("g0")), {})
    assert not typing_isomorphic(t_same, t_split)
    assert not typing_isomorphic(t_split, t_same)
    assert typing_isomorphic(t_split, Typing((Ground("u"), Ground("w")), {}))

    arrow = Typing((Arrow(Ground("g0"), Ground("g1")), Ground("g0")), {})
    assert not typing_isomorphic(arrow, t_split)
    with pytest.raises(InputError):
        typing_isomorphic(t_split, six_typing(g))


def test_verify_and_isomorphism_on_deep_types():
    g = oracles.six()
    chain = parse_type(" -> ".join(["g"] * 901))
    types = [Ground("g")] * g.size
    types[g.element("a").index] = chain
    report = verify(g, Typing(tuple(types), {}), "strong")
    assert not report.accepted
    assert not report.axiom1_forward_ok and not report.strictness_ok
    assert "a b = ab: product has type g, expected g -> g" in "".join(
        v.detail for v in report.failures)

    # tree size 2^61 - 1; matched pair by pair, not node by node
    deep = Typing((oracles.doubling_type(60, "u"), Ground("u")), {})
    renamed = Typing((oracles.doubling_type(60, "w"), Ground("w")), {})
    assert typing_isomorphic(deep, renamed)
    for other in (Typing((oracles.doubling_type(60, "w"), Ground("u")), {}),
                  Typing((oracles.doubling_type(59, "w"), Ground("w")), {})):
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
