import pytest

from pargoids import typability
from pargoids.congruence import (is_congruence, leibniz, lemma1_check, make_partition,
                                 separator)
from pargoids.errors import InputError
from pargoids.polyclone import classify, compute_clone, format_term
from pargoids.types import Ground, Typing

import oracles


def test_make_partition_canonical():
    p = make_partition([[2, 1], [0]], 3)
    assert p.blocks == ((0,), (1, 2))
    assert p.class_of == (0, 1, 1)


def test_make_partition_rejects_bad_input():
    with pytest.raises(InputError):
        make_partition([[0], [0, 1]], 2)
    with pytest.raises(InputError):
        make_partition([[0]], 2)
    with pytest.raises(InputError):
        make_partition([[0, 2]], 2)
    with pytest.raises(InputError):
        make_partition([[0], []], 1)


def test_leibniz_fixtures():
    g3 = oracles.three()
    assert leibniz(g3, compute_clone(g3)).blocks == ((0,), (1,), (2,))
    g6 = oracles.six()
    assert leibniz(g6, compute_clone(g6)).blocks == tuple((e,) for e in range(6))
    gv = oracles.void2()
    assert leibniz(gv, compute_clone(gv)).blocks == ((0, 1),)
    gc = oracles.chain3()
    assert leibniz(gc, compute_clone(gc)).blocks == ((0,), (1,), (2,))


def test_leibniz_matches_profile_partition():
    instances = [oracles.three(), oracles.six(), oracles.void2(), oracles.chain3()]
    instances += [g for _, g in oracles.arbitrary_batch(12, (2, 3, 4), (0.2, 0.5, 0.8), 7600)]
    for g in instances:
        clone = compute_clone(g)
        assert leibniz(g, clone).blocks == oracles.brute_force_partition(g)


def test_leibniz_refuses_truncated_clone():
    g = oracles.six()
    with pytest.raises(InputError):
        leibniz(g, compute_clone(g, budget=7))


def test_is_congruence_fixtures():
    g6 = oracles.six()
    diag = make_partition([[e] for e in range(6)], 6)
    assert is_congruence(g6, diag) == (True, None)
    gv = oracles.void2()
    assert is_congruence(gv, make_partition([[0, 1]], 2)) == (True, None)


def test_is_congruence_merged_counterexample():
    g = oracles.six()
    e = {nm: g.element(nm).index for nm in g.names}
    merged = make_partition(
        [[e["a"], e["c"]], [e["b"]], [e["ab"]], [e["cb"]], [e["d"]]], 6)
    ok, quad = is_congruence(g, merged)
    assert not ok
    assert tuple(x.name for x in quad) == ("a", "c", "b", "b")


def test_is_congruence_size_mismatch():
    with pytest.raises(InputError):
        is_congruence(oracles.three(), make_partition([[0, 1]], 2))


def test_leibniz_is_a_congruence():
    # a theorem for profile partitions; a failure here is a bug alarm
    for _, g in oracles.arbitrary_batch(25, (2, 3, 4, 5), (0.1, 0.4, 0.7), 7700):
        clone = compute_clone(g)
        if clone.budget_hit:
            continue
        assert is_congruence(g, leibniz(g, clone)) == (True, None)


def test_separator_three_frozen():
    g = oracles.three()
    clone = compute_clone(g)
    sep = separator(g, clone, g.element("a"), g.element("b"))
    assert format_term(sep.witness) == "(prod var var)"
    assert sep.graph == (0, None, None)


def test_separator_absence():
    gv = oracles.void2()
    clone = compute_clone(gv)
    assert separator(gv, clone, 0, 1) is None
    g = oracles.three()
    assert separator(g, compute_clone(g), 1, 1) is None


def test_separator_iff_different_blocks():
    for _, g in oracles.arbitrary_batch(15, (2, 3, 4), (0.2, 0.5), 7800):
        clone = compute_clone(g)
        part = leibniz(g, clone)
        for a in range(g.size):
            for c in range(g.size):
                sep = separator(g, clone, a, c)
                if part.class_of[a] == part.class_of[c]:
                    assert sep is None
                else:
                    assert (sep.graph[a] is None) != (sep.graph[c] is None)


def test_separator_refuses_truncated_clone():
    g = oracles.six()
    with pytest.raises(InputError):
        separator(g, compute_clone(g, budget=7), 0, 2)


def test_lemma1_fixture_cases():
    g6 = oracles.six()
    clone6 = classify(compute_clone(g6))
    varpi6 = leibniz(g6, clone6)
    decision = typability.decide(g6)
    assert lemma1_check(g6, decision.typing, clone6, varpi6) == (True, None)

    gv = oracles.void2()
    clonev = classify(compute_clone(gv))
    varpiv = leibniz(gv, clonev)
    typing = Typing((Ground("g0"), Ground("g0")))
    assert lemma1_check(gv, typing, clonev, varpiv) == (True, None)


def test_lemma1_detects_profile_split():
    g = oracles.three()
    clone = classify(compute_clone(g))
    varpi = leibniz(g, clone)
    ok, (a, b, sep) = lemma1_check(g, Typing((Ground("g0"),) * 3), clone, varpi)
    assert not ok
    assert (a.name, b.name) == ("a", "b")
    assert format_term(sep.witness) == "(prod var var)"
