import pytest

from pargoids import polyclone
from pargoids.errors import InputError, ResourceExhausted
from pargoids.pargoid import ElementId, Pargoid
from pargoids.polyclone import (Const, Prod, VAR, classify, compute_clone,
                                eval_term, format_term, lemma2_check,
                                parse_term, term_graph, term_size)

import oracles


def quad():
    # x.x is definite with domain {a, c}, and x.a separates a from c
    return Pargoid(("a", "b", "c", "d"), {(0, 0): 1, (2, 2): 3, (0, 1): 3})


def test_eval_term():
    g = oracles.six()
    xb = Prod(VAR, Const(g.element("b")))
    xbd = Prod(xb, Const(g.element("d")))
    assert eval_term(g, xb, g.element("a")) == g.element("ab")
    assert eval_term(g, xbd, g.element("a")) == g.element("d")
    assert eval_term(g, xbd, g.element("c")) is None
    assert eval_term(g, VAR, 4) == g.element("cb")
    assert eval_term(g, Const(g.element("d")), 0) == g.element("d")


def test_term_graph_and_size():
    g = oracles.six()
    xb = Prod(VAR, Const(g.element("b")))
    assert term_graph(g, xb) == (3, None, 4, None, None, None)
    assert term_size(VAR) == 1
    assert term_size(xb) == 3
    assert term_size(Prod(xb, Const(g.element("d")))) == 5


def test_format_and_parse_term():
    g = oracles.six()
    for text in ("var", "(const ab)", "(prod var (const b))",
                 "(prod (prod var (const b)) (const d))",
                 "(prod (const a) var)"):
        assert format_term(parse_term(g, text)) == text
    assert parse_term(g, "  var  ") == VAR


def test_parse_term_errors():
    g = oracles.three()
    for text in ("", "var var", "(const z)", "(prod var)", "(const a",
                 "(var)", "(sum var var)", "(prod var var) trailing", "()"):
        with pytest.raises(InputError):
            parse_term(g, text)


def test_clone_three_frozen():
    g = oracles.three()
    clone = classify(compute_clone(g))
    assert clone.op_count == 8
    listing = [(format_term(op.witness), op.graph) for op in clone.ops]
    assert listing == [
        ("var", (0, 1, 2)),
        ("(const a)", (0, 0, 0)),
        ("(const b)", (1, 1, 1)),
        ("(const c)", (2, 2, 2)),
        ("(prod var var)", (0, None, None)),
        ("(prod var (const b))", (None, None, None)),
        ("(prod (const b) var)", (None, None, 2)),
        ("(prod var (const c))", (None, 2, None)),
    ]
    assert [op.is_trivial for op in clone.ops] == [True] * 4 + [False] * 4
    assert [op.is_definite for op in clone.ops] == [False] * 4 + [True] * 4


def test_clone_six_frozen():
    g = oracles.six()
    clone = classify(compute_clone(g))
    assert clone.op_count == 15
    by_witness = {format_term(op.witness): op for op in clone.ops}
    e = {nm: g.element(nm).index for nm in g.names}
    assert by_witness["(prod var (const b))"].domain == (e["a"], e["c"])
    assert by_witness["(prod (prod var (const b)) (const d))"].domain == (e["a"],)
    assert by_witness["(prod (const a) var)"].domain == (e["b"],)
    assert by_witness["(prod (const c) var)"].domain == (e["b"],)
    assert by_witness["(prod (const ab) var)"].domain == (e["d"],)
    # x.b is the only nontrivial, nonconstant, indefinite op
    op = by_witness["(prod var (const b))"]
    assert not op.is_trivial and not op.is_constant and not op.is_definite
    indefinite = [o for o in clone.ops
                  if not o.is_trivial and not o.is_constant and not o.is_definite]
    assert indefinite == [op]


def test_clone_void_product():
    g = oracles.void2()
    clone = classify(compute_clone(g))
    graphs = {op.graph for op in clone.ops}
    assert graphs == {(0, 1), (0, 0), (1, 1), (None, None)}
    assert all(op.is_trivial or op.domain == () for op in clone.ops)


def test_clone_single_element():
    g = oracles.single()
    clone = compute_clone(g)
    # the constant collapses into the identity; x.x is the empty map
    assert clone.op_count == 2
    assert clone.ops[0].witness == VAR
    assert clone.ops[0].graph == (0,)
    assert clone.ops[1].witness == Prod(VAR, VAR)
    assert clone.ops[1].graph == (None,)


# carriers on either side of the 8- and 16-element boundaries, where a
# clone row spans one, two or three 64-bit words
WORD_BOUNDARY_SIZES = (8, 9, 16, 17)


def word_boundary_inputs(seed0, densities=(0.05, 0.1)):
    """Sparse tables and doubling chains at the word boundaries."""
    tables = oracles.arbitrary_batch(8, WORD_BOUNDARY_SIZES, densities, seed0)
    return ([g for _, g in tables]
            + [oracles.doubling_chain(n) for n in WORD_BOUNDARY_SIZES])


def test_clone_op_numbering():
    inputs = [g for _, g in oracles.arbitrary_batch(10, (2, 4, 6), (0.2, 0.6), 7200)]
    inputs += word_boundary_inputs(7800, (0.1, 0.15))
    for g in inputs:
        clone = compute_clone(g, budget=1024)
        assert clone.ops[0].graph == tuple(range(g.size))
        for b in range(g.size):
            assert clone.ops[1 + b].graph == (b,) * g.size
        if not clone.budget_hit:
            assert [op.graph for op in clone.ops] == oracles.worklist_clone_graphs(g)


def test_clone_matches_brute_force():
    fixtures = [oracles.three(), oracles.six(), oracles.void2(), oracles.chain3(), quad()]
    randoms = [g for _, g in oracles.arbitrary_batch(12, (2, 3, 4), (0.2, 0.5, 0.8), 7300)]
    for g in fixtures + randoms + word_boundary_inputs(7600):
        clone = compute_clone(g)
        assert not clone.budget_hit
        assert {op.graph for op in clone.ops} == oracles.brute_force_clone_graphs(g)


def test_witnesses_evaluate_to_graphs():
    inputs = [g for _, g in oracles.arbitrary_batch(15, (2, 3, 5), (0.2, 0.5, 0.8), 7400)]
    for g in inputs + word_boundary_inputs(7700, (0.05, 0.1, 0.15)):
        clone = compute_clone(g, budget=3000)
        if clone.budget_hit:
            continue
        graphs = oracles.witness_graphs(g, [op.witness for op in clone.ops])
        assert graphs == [op.graph for op in clone.ops]


def test_find_and_product_edges():
    g = oracles.six()
    clone = compute_clone(g)
    assert clone.find(tuple(range(6))) == 0
    assert clone.find((3, None, 4, None, None, None)) == 9
    assert clone.find((None,) * 6) == 7
    assert clone.find((5,) * 6) == 6
    assert clone.find((0, 1, 2, 3, 4, None)) is None
    with pytest.raises(InputError):
        clone.find((0, 1))
    # recorded edges compose pointwise
    for i in range(clone.op_count):
        for j in range(clone.op_count):
            r = clone.product_edge(i, j)
            assert r is not None
            assert clone.ops[r].graph == oracles.pointwise(
                g, clone.ops[i].graph, clone.ops[j].graph)
    with pytest.raises(InputError):
        clone.product_edge(0, clone.op_count)


def test_budget_semantics():
    g = oracles.six()
    with pytest.raises(InputError):
        compute_clone(g, budget=6)
    truncated = compute_clone(g, budget=7)
    assert truncated.budget_hit
    assert truncated.op_count == 7
    with pytest.raises(ResourceExhausted) as exc:
        compute_clone(g, budget=7, exact=True)
    assert exc.value.stage == "clone"
    assert exc.value.budget == 7
    with pytest.raises(InputError):
        classify(truncated)
    exact = compute_clone(g, budget=15, exact=True)
    assert not exact.budget_hit


def test_carrier_size_limit():
    names = tuple(f"e{i}" for i in range(256))
    with pytest.raises(InputError):
        compute_clone(Pargoid(names, {}), budget=300)


def test_classify_readings():
    g = oracles.three()
    total = classify(compute_clone(g), "total")
    ondom = classify(compute_clone(g), "on-domain")
    assert total.reading == "total"
    assert ondom.reading == "on-domain"
    empty = total.find((None, None, None))
    xx = total.find((0, None, None))
    # the empty map and partial maps with one value are on-domain constants
    assert not total.ops[empty].is_constant
    assert ondom.ops[empty].is_constant
    assert not total.ops[xx].is_constant
    assert ondom.ops[xx].is_constant
    with pytest.raises(InputError):
        classify(compute_clone(g), "partial")


def test_classify_six_reading_difference():
    g = oracles.six()
    raw = compute_clone(g)
    total = classify(raw, "total")
    ondom = classify(raw, "on-domain")
    xd = raw.find((None, None, None, 5, None, None))
    xbd = raw.find((5, None, None, None, None, None))
    for idx in (xd, xbd):
        assert total.ops[idx].is_definite
        assert not ondom.ops[idx].is_definite
    # ops definite under on-domain stay definite under total
    for t_op, o_op in zip(total.ops, ondom.ops):
        if o_op.is_definite:
            assert t_op.is_definite


def test_classify_matches_definite_oracle():
    instances = [oracles.three(), oracles.six(), oracles.void2(), quad()]
    instances += [g for _, g in oracles.arbitrary_batch(8, (2, 3, 4), (0.3, 0.6), 7500)]
    instances += oracles.typed_literal_batch(40, 8100)
    propagated = 0
    for g in instances:
        expected = oracles.definite_oracle_both(g, oracles.brute_force_clone_graphs(g))
        raw = compute_clone(g)
        for reading in polyclone.READINGS:
            clone = classify(raw, reading)
            got = {op.graph for op in clone.ops if op.is_definite}
            assert got == expected[reading]
            seeded = raw.seeded(reading)
            propagated += sum(op.is_definite and not seeded[i]
                              for i, op in enumerate(clone.ops))
    # some definite op is reached only through a constant right factor
    assert propagated > 0


def test_classify_is_idempotent():
    g = oracles.six()
    once = classify(compute_clone(g))
    twice = classify(once)
    assert [(o.is_trivial, o.is_constant, o.is_definite) for o in once.ops] == \
           [(o.is_trivial, o.is_constant, o.is_definite) for o in twice.ops]


def test_lemma2_fixtures():
    for g in (oracles.three(), oracles.six(), oracles.void2(), oracles.chain3(), quad()):
        for reading in polyclone.READINGS:
            clone = classify(compute_clone(g), reading)
            ok, witness = lemma2_check(clone)
            assert ok and witness is None


def test_lemma2_requires_classification():
    with pytest.raises(InputError):
        lemma2_check(compute_clone(oracles.three()))


def test_const_holds_element_id():
    g = oracles.three()
    t = Const(g.element("b"))
    assert t.value == ElementId(1, "b")
    assert eval_term(g, Prod(t, t), 0) is None
