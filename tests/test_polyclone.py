import numpy as np
import pytest

from pargoids import polyclone
from pargoids.errors import InputError
from pargoids.pargoid import ElementId, Pargoid
from pargoids.polyclone import (Const, Prod, VAR, classify, compute_clone,
                                format_term, lemma2_check, parse_term,
                                term_graph)

import oracles


def quad():
    # x.x is definite with domain {a, c}, and x.a separates a from c
    return Pargoid(("a", "b", "c", "d"), {(0, 0): 1, (2, 2): 3, (0, 1): 3})


def test_eval_term():
    g = oracles.six()
    xb = Prod(VAR, Const(g.element("b")))
    xbd = Prod(xb, Const(g.element("d")))
    assert term_graph(g, xb)[g.element("a").index] == g.element("ab").index
    assert term_graph(g, xbd)[g.element("a").index] == g.element("d").index
    assert term_graph(g, xbd)[g.element("c").index] is None
    assert term_graph(g, VAR)[4] == g.element("cb").index
    assert term_graph(g, Const(g.element("d"))) == (g.element("d").index,) * 6
    # a 5,000-deep product chain evaluates without recursion: a a = a in three
    g = oracles.three()
    chain = VAR
    for _ in range(5000):
        chain = Prod(chain, VAR)
    assert term_graph(g, chain) == (0, None, None)


def test_term_graph_and_size():
    g = oracles.six()
    xb = Prod(VAR, Const(g.element("b")))
    assert term_graph(g, xb) == (3, None, 4, None, None, None)
    assert oracles.term_nodes(VAR) == 1
    assert oracles.term_nodes(xb) == 3
    assert oracles.term_nodes(Prod(xb, Const(g.element("d")))) == 5
    # the term enumeration yields node counts 1..max_size, leaves first
    sizes = [oracles.term_nodes(t) for t in oracles.enumerate_terms(g, 5)]
    assert sizes == sorted(sizes) and set(sizes) == {1, 3, 5}


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
    listing = [(format_term(op.witness), op.graph) for op in oracles.ops(clone)]
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
    assert [op.is_trivial for op in oracles.ops(clone)] == [True] * 4 + [False] * 4
    assert [op.is_definite for op in oracles.ops(clone)] == [False] * 4 + [True] * 4


def test_clone_six_frozen():
    g = oracles.six()
    clone = classify(compute_clone(g))
    assert clone.op_count == 15
    by_witness = {format_term(op.witness): op for op in oracles.ops(clone)}
    e = {nm: g.element(nm).index for nm in g.names}
    domain = {w: tuple(i for i, v in enumerate(op.graph) if v is not None)
              for w, op in by_witness.items()}
    assert domain["(prod var (const b))"] == (e["a"], e["c"])
    assert domain["(prod (prod var (const b)) (const d))"] == (e["a"],)
    assert domain["(prod (const a) var)"] == (e["b"],)
    assert domain["(prod (const c) var)"] == (e["b"],)
    assert domain["(prod (const ab) var)"] == (e["d"],)
    # x.b is the only nontrivial, nonconstant, indefinite op
    op = by_witness["(prod var (const b))"]
    assert not op.is_trivial and not op.is_constant and not op.is_definite
    indefinite = [o for o in oracles.ops(clone)
                  if not o.is_trivial and not o.is_constant and not o.is_definite]
    assert indefinite == [op]


def test_clone_void_product():
    g = oracles.void2()
    clone = classify(compute_clone(g))
    graphs = {op.graph for op in oracles.ops(clone)}
    assert graphs == {(0, 1), (0, 0), (1, 1), (None, None)}
    assert all(op.is_trivial or all(v is None for v in op.graph)
               for op in oracles.ops(clone))


def test_clone_is_its_arrays():
    g = oracles.six()
    raw = compute_clone(g)
    clone = classify(raw)
    # classify shares the arrays and adds read-only masks
    assert clone.graphs is raw.graphs and clone.op(9).witness is raw.op(9).witness
    assert raw.reading is None and raw.definite is None
    for arr in (clone.graphs, clone.trivial, clone.constant, clone.definite):
        assert not arr.flags.writeable
    assert clone.graphs[9].tolist() == [3, 6, 4, 6, 6, 6]
    op = clone.op(9)
    assert op.graph == (3, None, 4, None, None, None)
    assert format_term(op.witness) == "(prod var (const b))"
    assert (op.is_trivial, op.is_constant, op.is_definite) == (False, False, False)
    assert raw.op(9) == polyclone.UnaryPolyOp(op.graph, op.witness)
    assert [o.is_definite for o in oracles.ops(clone)] == clone.definite.tolist()


def test_clone_single_element():
    g = oracles.single()
    clone = compute_clone(g)
    # the constant collapses into the identity; x.x is the empty map
    assert clone.op_count == 2
    assert clone.op(0).witness == VAR
    assert clone.op(0).graph == (0,)
    assert clone.op(1).witness == Prod(VAR, VAR)
    assert clone.op(1).graph == (None,)


# carriers on either side of the 8-, 16- and 24-element boundaries, where
# a clone row spans one to four 64-bit words, with 0, 1 or 7 pad bytes
WORD_BOUNDARY_SIZES = (7, 8, 9, 15, 16, 17, 23, 25)


def word_boundary_inputs(seed0, densities=(0.05, 0.1)):
    """Sparse tables and doubling chains at the word boundaries: two
    tables each of 8, 9, 16 and 17 elements from seeds seed0 to seed0 + 7,
    and one each of 7, 15, 23 and 25 elements from the next four seeds."""
    tables = (oracles.arbitrary_batch(8, (8, 9, 16, 17), densities, seed0)
              + oracles.arbitrary_batch(4, (7, 15, 23, 25), densities, seed0 + 8))
    return ([g for _, g in tables]
            + [oracles.doubling_chain(n) for n in WORD_BOUNDARY_SIZES])


def wide_generation_input():
    """A 16-element table with generations of 6,300 and 5,945 pairs: more
    than one closure batch holds, so batches end inside them."""
    return oracles.arbitrary_batch(1, (16,), (0.1,), 9023)[0][1]


def test_clone_op_numbering():
    inputs = [g for _, g in oracles.arbitrary_batch(10, (2, 4, 6), (0.2, 0.6), 7200)]
    inputs += word_boundary_inputs(7800, (0.1, 0.15))
    wide = wide_generation_input()
    _, _, generations = oracles.worklist_clone(wide)
    assert any(hi * hi - lo * lo > polyclone._PAIR_CAP for lo, hi in generations)
    past_table = False
    for g in inputs + [wide]:
        clone = compute_clone(g, budget=1024)
        assert clone.op(0).graph == tuple(range(g.size))
        for b in range(g.size):
            assert clone.op(1 + b).graph == (b,) * g.size
        if not clone.budget_hit:
            assert [op.graph for op in oracles.ops(clone)] == oracles.worklist_clone(g)[0]
            past_table |= clone.op_count > polyclone._TABLE_OPS
    # batches past the pair table's ops compute their pairs
    assert past_table


def test_worklist_pairs_follow_the_documented_order(monkeypatch):
    # op i's pairs, (j, i) for j <= i and then (i, j) for j < i, take
    # places i² to (i + 1)² - 1, whatever op range a batch starts at;
    # from an empty pair table, each range is checked with the table's op
    # count after it: grown to the larger of end and twice its ops, at
    # most 256, and left as it is by a range it holds or one past 256
    cap = polyclone._TABLE_OPS
    assert cap == 256
    expected = [pair for i in range(300)
                for pair in [(j, i) for j in range(i + 1)] + [(i, j) for j in range(i)]]
    monkeypatch.setattr(polyclone, "_pair_table", (np.empty(0, dtype=np.intp),) * 2)
    for (done, end), table_ops in (((0, 1), 1), ((5, 9), 9), ((0, 4), 9),
                                   ((250, 260), 9), ((0, 300), 9), ((256, 257), 9),
                                   ((100, 140), 140), ((127, 128), 140), ((3, 7), 140),
                                   ((128, 200), 256), ((150, 151), 256),
                                   ((250, 256), 256), ((255, 258), 256), ((0, 128), 256)):
        left, right = polyclone._worklist_pairs(done, end)
        assert list(zip(left.tolist(), right.tolist())) == expected[done * done:end * end]
        assert len(polyclone._pair_table[0]) == table_ops * table_ops
        if end <= cap:
            assert not left.flags.writeable and not right.flags.writeable


def same_terms(got, expected):
    """Whether two witness lists are equal term by term, each product
    sharing its factors' entries by reference."""
    got_at = {id(t): i for i, t in enumerate(got)}
    expected_at = {id(t): i for i, t in enumerate(expected)}
    for t, u in zip(got, expected, strict=True):
        if isinstance(u, Prod):
            if not isinstance(t, Prod) or \
                    (got_at.get(id(t.left)), got_at.get(id(t.right))) != \
                    (expected_at[id(u.left)], expected_at[id(u.right)]):
                return False
        elif t != u:
            return False
    return True


def test_witnesses_match_the_worklist_terms():
    # the lazily built witnesses are the worklist's terms, on closed and
    # on truncated clones, and a term built alone by op(i) is the one the
    # whole tuple holds
    for g in word_boundary_inputs(8601, (0.05,)) + [oracles.six(), quad()]:
        _, terms, _ = oracles.worklist_clone(g)
        for budget in sorted({g.size + 1, g.size + 4, (g.size + 1 + len(terms)) // 2,
                              len(terms), len(terms) + 5} - set(range(g.size + 1))):
            clone = compute_clone(g, budget)
            last = clone.op_count - 1
            witness = clone.op(last).witness
            assert same_terms([op.witness for op in oracles.ops(clone)],
                              terms[:clone.op_count])
            assert clone.op(last).witness is witness


def test_padding_stays_out_of_the_clone():
    for g in word_boundary_inputs(8701, (0.05, 0.1)):
        clone = compute_clone(g, budget=512)
        n = g.size
        assert clone.graphs.shape == (clone.op_count, n)
        assert clone.domains().shape == (clone.op_count, n)
        assert (clone.domains() == (clone.graphs != n)).all()
        assert [clone.find(op.graph) for op in oracles.ops(clone)] == list(range(clone.op_count))
        assert all(len(op.graph) == n for op in oracles.ops(clone))


def test_products_read_every_cell_of_the_table():
    # a cell's index a * (n + 1) + b reaches 255 at 15 elements, where it
    # is still formed a word at a time, passes it from 16 elements on and
    # reaches 65,535 at MAX_CARRIER, so it must not be kept in uint8 there
    for n in (8, 15, 16, 17, 40, polyclone.MAX_CARRIER):
        g = oracles.arbitrary_batch(1, (n,), (0.9,), 8900 + n)[0][1]
        clone = compute_clone(g, budget=n + 1)
        ops = np.arange(0, clone.op_count, max(1, clone.op_count // 32))
        rows = polyclone._products(clone._words, clone._mult, ops[:, None], ops)
        cells = clone._words.view(np.uint8).astype(np.intp)
        expected = clone._mult[cells[ops][:, None], cells[ops][None, :]]
        assert rows.dtype == np.uint8
        assert (rows == expected).all()


def padded_batch(rng, count, words, repeats):
    """count rows of the given number of 64-bit words, as _products returns
    them, in random order; about the share repeats of them copy an earlier
    row. The distinct rows draw each word from three values and add 3k to
    one word of row k, so they agree in some words and differ in others."""
    packed = rng.integers(0, 3, size=(count, words)).astype(np.uint64)
    packed[np.arange(count), rng.integers(0, words, count)] += \
        np.arange(count, dtype=np.uint64) * np.uint64(3)
    for k in range(1, count):
        if rng.random() < repeats:
            packed[k] = packed[rng.integers(0, k)]
    return packed[rng.permutation(count)].view(np.uint8)


def test_runs_match_the_stable_sort_reference():
    # one-word rows are sorted unstably, so each run's earliest row must
    # come from the run's members, not from its head in the sorted order
    rng = np.random.default_rng(8800)
    for words in (1, 2, 3):
        for count, repeats in ((1, 0.0), (250, 0.0), (250, 0.6), (250, 0.98),
                               (4096, 0.6), (4096, 0.98)):
            rows = padded_batch(rng, count, words, repeats)
            order, heads, first = polyclone._runs(rows)
            runs = oracles.runs_reference(rows)
            assert sorted(order.tolist()) == list(range(count))
            assert heads.tolist() == np.cumsum([0] + [len(r) for r in runs[:-1]]).tolist()
            bounds = heads.tolist() + [count]
            assert [sorted(order[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])] \
                == runs
            assert first.tolist() == [run[0] for run in runs]
            if repeats == 0.0:
                assert len(runs) == count


def test_levels_and_seeds_match_the_products():
    # every op's level and seed against the graphs and all their pairwise
    # products, on one- to four-word rows
    inputs = [oracles.three(), oracles.six(), oracles.void2(), oracles.single(), quad()]
    inputs += [g for _, g in oracles.arbitrary_batch(8, (2, 3, 4), (0.3, 0.6), 8810)]
    closed = 0
    for g in inputs + word_boundary_inputs(8801):
        clone = compute_clone(g, budget=400)
        if clone.budget_hit:
            continue
        closed += 1
        graphs = [op.graph for op in oracles.ops(clone)]
        levels = [oracles.level_reference(g, graph) for graph in graphs]
        seeds = oracles.seed_reference(g, graphs)
        assert clone._level.tolist() == levels
        assert clone._seed.tolist() == seeds
        for reading, threshold in polyclone._NONCONSTANT_LEVEL.items():
            assert clone.seeded(reading).tolist() == [s >= threshold for s in seeds]
    assert closed >= 28


def test_truncated_clone_is_a_prefix():
    # each budget stops the closure at its own pair, wherever it falls
    # in a batch
    for g in word_boundary_inputs(8501, (0.05,)) + [wide_generation_input()]:
        closed = compute_clone(g)
        m = closed.op_count
        terms = [format_term(op.witness) for op in oracles.ops(closed)]
        for budget in range(g.size + 1, m + 1):
            clone = compute_clone(g, budget)
            assert clone.budget_hit == (budget < m)
            assert [op.graph for op in oracles.ops(clone)] == \
                   [op.graph for op in oracles.ops(closed)[:budget]]
            assert [format_term(op.witness) for op in oracles.ops(clone)] == terms[:budget]


def test_clone_matches_brute_force():
    fixtures = [oracles.three(), oracles.six(), oracles.void2(), oracles.chain3(), quad()]
    randoms = [g for _, g in oracles.arbitrary_batch(12, (2, 3, 4), (0.2, 0.5, 0.8), 7300)]
    for g in fixtures + randoms + word_boundary_inputs(7600):
        clone = compute_clone(g)
        assert not clone.budget_hit
        assert {op.graph for op in oracles.ops(clone)} == oracles.brute_force_clone_graphs(g)


def test_witnesses_evaluate_to_graphs():
    inputs = [g for _, g in oracles.arbitrary_batch(15, (2, 3, 5), (0.2, 0.5, 0.8), 7400)]
    for g in inputs + word_boundary_inputs(7700, (0.05, 0.1, 0.15)):
        clone = compute_clone(g, budget=3000)
        if clone.budget_hit:
            continue
        for op in oracles.ops(clone):
            assert term_graph(g, op.witness) == op.graph


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
    # n is the undefined sentinel inside the clone, not a graph value
    three = compute_clone(oracles.three())
    assert three.find((None,) * 3) == 5
    for bad in (3, 300, -1, 1.0, 0.5, "a"):
        with pytest.raises(InputError):
            three.find((bad,) * 3)
        with pytest.raises(InputError):
            three.find((0, bad, None))
    # recorded products compose pointwise
    for i in range(clone.op_count):
        for j in range(clone.op_count):
            r = clone.products([i], [j])
            assert r.size == 1
            assert clone.op(r[0]).graph == oracles.pointwise(
                g, clone.op(i).graph, clone.op(j).graph)


def test_budget_semantics():
    g = oracles.six()
    with pytest.raises(InputError):
        compute_clone(g, budget=6)
    truncated = compute_clone(g, budget=7)
    assert truncated.budget_hit
    assert truncated.op_count == 7
    with pytest.raises(InputError):
        classify(truncated)
    assert not compute_clone(g, budget=15).budget_hit


def test_products_refuse_a_truncated_clone():
    # a truncated clone lacks products it has not reached, so it has no
    # product set to give, as it has no classification or congruence
    truncated = compute_clone(oracles.six(), budget=7)
    ops = range(truncated.op_count)
    with pytest.raises(InputError):
        truncated.products(ops, ops)


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
    assert not total.op(empty).is_constant
    assert ondom.op(empty).is_constant
    assert not total.op(xx).is_constant
    assert ondom.op(xx).is_constant
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
        assert total.op(idx).is_definite
        assert not ondom.op(idx).is_definite
    # ops definite under on-domain stay definite under total
    for t_op, o_op in zip(oracles.ops(total), oracles.ops(ondom)):
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
            got = {op.graph for op in oracles.ops(clone) if op.is_definite}
            assert got == expected[reading]
            seeded = raw.seeded(reading)
            propagated += sum(op.is_definite and not seeded[i]
                              for i, op in enumerate(oracles.ops(clone)))
    # some definite op is reached only through a constant right factor
    assert propagated > 0


def test_classify_is_idempotent():
    g = oracles.six()
    once = classify(compute_clone(g))
    twice = classify(once)
    assert [(o.is_trivial, o.is_constant, o.is_definite) for o in oracles.ops(once)] == \
           [(o.is_trivial, o.is_constant, o.is_definite) for o in oracles.ops(twice)]


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
    assert term_graph(g, Prod(t, t))[0] is None
