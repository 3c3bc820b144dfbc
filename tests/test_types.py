import copy
import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError

import pytest

from pargoids.errors import InputError
from pargoids.types import (Arrow, Ground, format_type, parse_type, subterms,
                            type_size)

import oracles

g0, g1, g2 = Ground("g0"), Ground("g1"), Ground("g2")


def test_structural_equality():
    assert Ground("g0") == g0
    assert Arrow(g0, g1) == Arrow(g0, g1)
    assert Arrow(g0, g1) != Arrow(g1, g0)
    assert g0 != Arrow(g0, g0)
    assert len({g0, Ground("g0"), Arrow(g0, g1), Arrow(g0, g1)}) == 2


def test_type_size():
    assert type_size(g0) == 1
    assert type_size(Arrow(g0, g1)) == 3
    assert type_size(Arrow(Arrow(g0, g1), g2)) == 5


def test_format_right_association():
    assert format_type(g0) == "g0"
    assert format_type(Arrow(g0, Arrow(g1, g1))) == "g0 -> g1 -> g1"
    assert format_type(Arrow(Arrow(g0, g1), g2)) == "(g0 -> g1) -> g2"


def test_parse_type():
    assert parse_type("b -> d -> d") == Arrow(Ground("b"), Arrow(Ground("d"), Ground("d")))
    assert parse_type("(g0 -> g1) -> g2") == Arrow(Arrow(g0, g1), g2)
    assert parse_type("  g0  ") == g0
    assert parse_type("((g0))") == g0


def test_parse_format_round_trip():
    for t in (g0, Arrow(g0, g1), Arrow(Arrow(g0, g1), Arrow(g1, g2)),
              Arrow(g0, Arrow(Arrow(g1, g1), g2))):
        assert parse_type(format_type(t)) == t


def test_parse_type_errors():
    with pytest.raises(InputError):
        parse_type("-> a")
    with pytest.raises(InputError):
        parse_type("a ->")
    with pytest.raises(InputError):
        parse_type("(a -> b")
    with pytest.raises(InputError):
        parse_type("a b")
    with pytest.raises(InputError) as exc:
        parse_type("")
    assert exc.value.column == 1


def test_subterms():
    t = Arrow(Arrow(g0, g1), g2)
    assert subterms(t) == {t, Arrow(g0, g1), g0, g1, g2}
    assert subterms(g0) == {g0}


def test_terms_are_interned():
    assert Arrow(Ground("a"), Ground("b")) is Arrow(Ground("a"), Ground("b"))
    assert Ground("g0") is g0
    assert Arrow(antecedent=g0, consequent=g1) is Arrow(g0, g1)
    assert parse_type("(g0 -> g1) -> g2") is Arrow(Arrow(g0, g1), g2)
    assert hash(Arrow(g0, g1)) == hash(Arrow(g0, g1))


def test_terms_keep_dataclass_behaviour():
    t = Arrow(g0, Arrow(g1, g2))
    assert repr(t) == ("Arrow(antecedent=Ground(name='g0'), consequent="
                       "Arrow(antecedent=Ground(name='g1'), consequent=Ground(name='g2')))")
    assert (t.antecedent, t.consequent.consequent.name) == (g0, "g2")
    with pytest.raises(FrozenInstanceError):
        t.antecedent = g1
    with pytest.raises(FrozenInstanceError):
        g0.name = "g9"
    for u in (g0, t, oracles.doubling_type(30)):
        assert pickle.loads(pickle.dumps(u)) is u
        assert copy.copy(u) is u
        assert copy.deepcopy(u) is u


def test_pool_does_not_keep_unused_terms():
    ref = weakref.ref(Arrow(Ground("pool_probe"), g0))
    gc.collect()
    assert ref() is None


def test_type_size_is_stored():
    assert type_size(oracles.doubling_type(3)) == 15
    assert type_size(oracles.doubling_type(200)) == 2 ** 201 - 1


def test_long_and_deep_types_need_no_recursion():
    chain = parse_type(" -> ".join(["g"] * 5001))
    assert type_size(chain) == 10_001
    assert parse_type(format_type(chain)) is chain
    assert len(subterms(chain)) == 5001
    assert parse_type("(" * 3000 + "g" + ")" * 3000) is Ground("g")
    # left-nested: every antecedent is parenthesized
    left = g0
    for _ in range(3000):
        left = Arrow(left, g0)
    assert parse_type(format_type(left)) is left


def test_format_shared_subterms():
    assert format_type(oracles.doubling_type(2)) == "(g0 -> g0) -> g0 -> g0"
    assert parse_type(format_type(oracles.doubling_type(12))) is oracles.doubling_type(12)
    assert len(subterms(oracles.doubling_type(100))) == 101
