"""Tests of the benchmark's independent checker.

    python3 -m pytest bench/test_checker.py

The package is used here only to make inputs and verdicts for the checker
to judge; the checker itself imports nothing from it.
"""
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import run  # noqa: E402
from pargoids import cli, generators, pargoid, typability  # noqa: E402


def load(name):
    return pargoid.parse((ROOT / "fixtures" / name).read_bytes())


def gen(seed, size, density):
    return generators.gen_arbitrary(
        generators.GenConfig(size=size, seed=seed, density=density))


def verdict_of(g, budget=run.DEFAULT_BUDGET):
    return run.neutral_verdict(typability, typability.decide(g, budget))


def typing_verdict(g, texts):
    store = checker.TypeStore()
    return checker.Verdict("typable", store=store,
                           types=[checker.parse_type(store, texts[name])
                                  for name in g.names])


def test_six_fixture_is_typable_and_checked():
    g = load("six.pgd")
    assert checker.principal_typing(g.size, g.table) is not None
    assert checker.strong_typing_exists(g.size, g.table)
    assert checker.check(g.size, g.table, verdict_of(g)) is None
    doc = json.loads((ROOT / "fixtures" / "six-typing.json").read_text())
    assert checker.check(g.size, g.table, typing_verdict(g, doc["types"])) is None
    swapped = dict(doc["types"], b=doc["types"]["d"], d=doc["types"]["b"])
    reason = checker.check(g.size, g.table, typing_verdict(g, swapped))
    assert "breaks T(a) = T(b) -> T(c)" in reason


def test_three_fixture_cycle():
    g = load("three.pgd")
    assert checker.principal_typing(g.size, g.table) is None
    verdict = verdict_of(g)
    assert verdict.kind == "cycle" and verdict.path == [0, 0]
    assert checker.check(g.size, g.table, verdict) is None
    b, c = g.element("b").index, g.element("c").index
    bogus = checker.Verdict("cycle", path=[b, c, b])
    assert "not below" in checker.check(g.size, g.table, bogus)
    open_path = checker.Verdict("cycle", path=[b, c])
    assert "does not close" in checker.check(g.size, g.table, open_path)
    anything = checker.Verdict("typable", store=checker.TypeStore(), types=[0, 0, 0])
    assert "no unifier" in checker.check(g.size, g.table, anything)


def test_cycle_steps_must_follow_the_table():
    g = pargoid.Pargoid(("f", "u", "v"), {(0, 1): 2})
    assert checker.principal_typing(g.size, g.table) is not None
    fake = checker.Verdict("cycle", path=[0, 1, 0])
    assert "not below" in checker.check(g.size, g.table, fake)


def test_literally_typable_without_strong_typing_40363():
    # pargoid gen --seed 40363 --size 5 --density 0.1
    g = gen(40363, 5, 0.1)
    assert checker.principal_typing(g.size, g.table) is not None
    assert not checker.strong_typing_exists(g.size, g.table)
    verdict = verdict_of(g)
    assert verdict.kind == "definite-violation"
    assert checker.check(g.size, g.table, verdict) is None
    assert "typable by construction" in checker.check(
        g.size, g.table, verdict, expect_typable=True)
    not_separating = checker.Verdict(
        "definite-violation", op=verdict.op, separator=verdict.op,
        a=verdict.a, c=verdict.c)
    assert "exactly one" in checker.check(g.size, g.table, not_separating)
    diverging = checker.Verdict(
        "definite-violation", op=("const", 0), separator=verdict.separator,
        a=verdict.a, c=verdict.c, op_graph=(None,) * g.size)
    assert "differs from its witness" in checker.check(g.size, g.table, diverging)


def test_literally_typable_without_strong_typing_70657():
    # pargoid gen --seed 70657 --size 8 --density 0.05
    g = gen(70657, 8, 0.05)
    assert checker.principal_typing(g.size, g.table) is not None
    assert not checker.strong_typing_exists(g.size, g.table)
    verdict = verdict_of(g)
    assert verdict.kind == "typable"
    assert checker.check(g.size, g.table, verdict) is None


def test_violation_rejected_when_a_strong_typing_exists():
    g = load("six.pgd")
    a, c = g.element("b").index, g.element("d").index
    # var converges on both; (prod (const c) var) on b only, since c b = cb
    sep = ("prod", ("const", g.element("c").index), checker.VAR)
    claim = checker.Verdict("definite-violation", op=checker.VAR, separator=sep,
                            a=a, c=c)
    assert "a strong typing exists" in checker.check(g.size, g.table, claim)


def test_deep_chain_type_sizes():
    pkg = run.Package()
    case = run.deep_chain(pkg, 16, random.Random(5))
    n, table = case.g.size, case.g.table
    store, types = checker.principal_typing(n, table)
    assert sorted(store.size(t) for t in types) == [2 ** (k + 1) - 1 for k in range(n)]
    verdict = verdict_of(case.g)
    assert checker.check(n, table, verdict, expect_typable=True,
                         expect_sizes=case.expect_sizes) is None
    wrong = {e: size + 1 for e, size in case.expect_sizes.items()}
    assert "nodes, expected" in checker.check(n, table, verdict, expect_sizes=wrong)


def test_typed_strong_instances_have_strong_typings():
    for seed in range(20):
        g, _ = generators.gen_typed(generators.GenConfig(
            size=8, seed=seed, mode="typed_strong", type_depth=2, ground_count=3))
        assert checker.strong_typing_exists(g.size, g.table)
        assert checker.check(g.size, g.table, verdict_of(g), expect_typable=True) is None


def test_cli_json_verdicts(tmp_path, capsys):
    extra = tmp_path / "gen40363.pgd"
    extra.write_bytes(pargoid.serialize(gen(40363, 5, 0.1)))
    paths = [ROOT / "fixtures" / "six.pgd", ROOT / "fixtures" / "three.pgd", extra]
    kinds = []
    for path in paths:
        g = pargoid.parse(path.read_bytes())
        cli.run(["decide", "--json", str(path)])
        doc = json.loads(capsys.readouterr().out)
        verdict = checker.verdict_from_json(
            {name: i for i, name in enumerate(g.names)}, doc)
        assert checker.check(g.size, g.table, verdict) is None
        kinds.append(verdict.kind)
    assert kinds == ["typable", "cycle", "definite-violation"]


def test_text_readers():
    store = checker.TypeStore()
    t = checker.parse_type(store, "(a -> b) -> a -> b")
    ab = store.arrow(store.ground("a"), store.ground("b"))
    assert t == store.arrow(ab, ab) and store.size(t) == 7
    index = {"var": 0, "e1": 1}
    term = checker.parse_term(index, "(prod var (const var))")
    assert term == ("prod", checker.VAR, ("const", 0))
    assert checker.parse_term(index, "var") == checker.VAR
