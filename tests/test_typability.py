import dataclasses

import pytest

from pargoids import generators, polyclone, typability, verifier
from pargoids.congruence import leibniz
from pargoids.errors import InputError, InternalError, ResourceExhausted
from pargoids.pargoid import ElementId, Pargoid
from pargoids.polyclone import (Prod, UnaryPolyOp, VAR, classify, compute_clone,
                                format_term)
from pargoids.typability import (Cycle, DefiniteViolation, Typable, Untypable,
                                 check_claim_star, check_condition_i,
                                 check_condition_ii, construct_typing, decide,
                                 validate_certificate)
from pargoids.types import Arrow, Ground, format_type

import oracles


def quad():
    return Pargoid(("a", "b", "c", "d"), {(0, 0): 1, (2, 2): 3, (0, 1): 3})


def closed(g, reading="total"):
    return classify(compute_clone(g), reading)


def test_condition_ii_fixtures():
    cyc = check_condition_ii(oracles.three())
    assert tuple(e.name for e in cyc.path) == ("a", "a")
    assert check_condition_ii(oracles.six()) is None
    assert check_condition_ii(oracles.single()) is None
    assert check_condition_ii(oracles.void2()) is None


def test_condition_ii_prefers_shortest_cycle():
    # 0->1->0 is a 2-cycle; 2's self-loop is shorter and found from start 2
    g = Pargoid(("p", "q", "r"), {(0, 1): 1, (1, 0): 0, (2, 2): 2})
    cyc = check_condition_ii(g)
    assert tuple(e.name for e in cyc.path) == ("r", "r")
    g2 = Pargoid(("p", "q"), {(0, 1): 1, (1, 0): 0})
    cyc2 = check_condition_ii(g2)
    assert tuple(e.name for e in cyc2.path) == ("p", "q", "p")
    ok, reason = validate_certificate(g2, cyc2)
    assert ok, reason


def test_condition_ii_finds_a_cycle_exactly_when_one_exists():
    # an acyclic order ends at the acyclicity pre-check, a cyclic one goes
    # on to the search; an independent depth-first search tells them apart
    tables = [g for _, g in oracles.arbitrary_batch(60, (2, 3, 5, 8), (0.05, 0.1, 0.3), 9400)]
    typed = oracles.typed_literal_batch(24, 9500) + \
        [oracles.doubling_chain(n) for n in (1, 2, 5, 12)]
    tables += typed
    # each typed table again with one self-loop product, a b = a or a a = b
    for k, g in enumerate(typed):
        n = g.size
        a, b = k % n, (3 * k + 1) % n
        tables.append(Pargoid(g.names, {**g.table, (a, b): a} if k % 2
                              else {**g.table, (a, a): b}))
    cyclic = 0
    for g in tables:
        cyc = check_condition_ii(g)
        assert (cyc is not None) == oracles.has_application_cycle(g)
        if cyc is not None:
            cyclic += 1
            ok, reason = validate_certificate(g, cyc)
            assert ok, reason
    assert 30 <= cyclic <= len(tables) - 30


def test_condition_i_fixtures():
    g6 = oracles.six()
    assert check_condition_i(g6, closed(g6), leibniz(g6, compute_clone(g6))) is None
    gv = oracles.void2()
    assert check_condition_i(gv, closed(gv), leibniz(gv, compute_clone(gv))) is None


def test_condition_i_violation_frozen():
    g = quad()
    clone = closed(g)
    violation = check_condition_i(g, clone, leibniz(g, compute_clone(g)))
    assert format_term(violation.op.witness) == "(prod var var)"
    assert violation.op.graph == (1, None, 3, None)
    assert (violation.a.name, violation.c.name) == ("a", "c")
    assert format_term(violation.separator.witness) == "(prod var (const a))"
    assert violation.separator.graph == (1, None, None, None)


def test_decide_three():
    decision = decide(oracles.three())
    assert isinstance(decision, Untypable)
    assert isinstance(decision.certificate, Cycle)
    assert tuple(e.name for e in decision.certificate.path) == ("a", "a")
    ok, reason = validate_certificate(oracles.three(), decision.certificate)
    assert ok, reason


def test_decide_six():
    g = oracles.six()
    decision = decide(g)
    assert isinstance(decision, Typable)
    typed = {g.names[e]: format_type(t)
             for e, t in enumerate(decision.typing.types)}
    assert typed == {
        "a": "g1 -> g5 -> g5",
        "b": "g1",
        "c": "g1 -> g4",
        "ab": "g5 -> g5",
        "cb": "g4",
        "d": "g5",
    }
    assert verifier.verify(g, decision.typing).accepted
    assert verifier.verify(g, decision.typing).accepted_strong


def test_decide_quad_prefers_definite_violation():
    # quad has an application-order cycle too, but condition (i) wins
    g = quad()
    for reading in polyclone.READINGS:
        decision = decide(g, reading=reading)
        assert isinstance(decision, Untypable)
        cert = decision.certificate
        assert isinstance(cert, DefiniteViolation)
        ok, reason = validate_certificate(g, cert, reading=reading)
        assert ok, reason


def test_decide_budget_exhaustion():
    with pytest.raises(ResourceExhausted) as exc:
        decide(oracles.six(), budget=7)
    assert (exc.value.stage, exc.value.budget) == ("clone", 7)
    # a cycle is still reported from a truncated clone
    decision = decide(oracles.three(), budget=4)
    assert isinstance(decision, Untypable)
    assert isinstance(decision.certificate, Cycle)
    decision = decide(quad(), budget=5)
    assert isinstance(decision.certificate, Cycle)


def test_decide_reuses_supplied_clone():
    g = oracles.six()
    clone = compute_clone(g)
    d1 = decide(g, clone=clone)
    d2 = decide(g, reading="on-domain", clone=clone)
    assert isinstance(d1, Typable) and isinstance(d2, Typable)
    assert d1.typing == d2.typing


def test_construct_typing_void():
    g = oracles.void2()
    typing = construct_typing(g, leibniz(g, compute_clone(g)))
    assert typing.types == (Ground("g0"), Ground("g0"))


def test_construct_typing_chain():
    g = oracles.chain3()
    typing = construct_typing(g, leibniz(g, compute_clone(g)))
    assert typing.types == (Arrow(Ground("g1"), Ground("g2")),
                            Ground("g1"), Ground("g2"))


def test_construct_typing_matches_topological_reference():
    instances = [oracles.six(), oracles.five(), oracles.void2(), oracles.chain3(),
                 oracles.single()]
    instances += [oracles.doubling_chain(n) for n in range(2, 41)]
    # the acyclic tables of a fixed sample: arbitrary ones, whose blocks
    # need not pass condition (i), and typed ones of both modes
    arbitrary = [g for _, g in oracles.arbitrary_batch(160, (3, 4, 5, 6, 7), (0.05, 0.1, 0.2), 78000)
                 if not oracles.has_application_cycle(g)]
    assert len(arbitrary) >= 40
    instances += arbitrary + oracles.typed_literal_batch(30, 78500)
    instances += [generators.gen_typed(generators.GenConfig(
        size=4 + k % 6, seed=78600 + k, mode="typed_strong", type_depth=2 + k % 2,
        ground_count=1 + k % 2))[0] for k in range(30)]
    for g in instances:
        varpi = leibniz(g, compute_clone(g))
        types = construct_typing(g, varpi).types
        reference = oracles.topological_typing_reference(g, varpi)
        assert len(types) == len(reference) == g.size
        assert all(t is r for t, r in zip(types, reference)), g


def test_construct_typing_rejects_cyclic_order():
    # a self-application, and x and y each applying to the other
    for g in (oracles.three(), Pargoid(("x", "y", "z"), {(0, 1): 2, (1, 0): 2})):
        with pytest.raises(InternalError, match="cycle"):
            construct_typing(g, leibniz(g, compute_clone(g)))


def test_typed_batch_properties():
    # descent of type size along the application order, and verifier acceptance
    from pargoids.generators import GenConfig, gen_typed
    from pargoids.types import type_size
    for k in range(40):
        cfg = GenConfig(size=2 + k % 5, seed=7900 + k, mode="typed_strong",
                        type_depth=1 + k % 3, ground_count=1)
        g, _ = gen_typed(cfg)
        decision = decide(g)
        assert isinstance(decision, Typable)
        types = decision.typing.types
        for (a, b), c in g.table.items():
            assert type_size(types[b]) < type_size(types[a])
            assert type_size(types[c]) < type_size(types[a])


def test_claim_star_three():
    g = oracles.three()
    report = check_claim_star(g, compute_clone(g), leibniz(g, compute_clone(g)))
    assert report.holds
    assert report.coconvergence_counterexample is None
    assert report.equivalence_counterexample is None
    assert report.divergence_counterexample is None
    # the claim holds here even though the pargoid is untypable
    assert isinstance(decide(g), Untypable)


def test_claim_star_six():
    g = oracles.six()
    clone = compute_clone(g)
    report = check_claim_star(g, clone, leibniz(g, clone))
    assert not report.holds
    assert report.coconvergence_counterexample is not None
    a, c, op = report.coconvergence_counterexample
    assert (a.name, c.name) == ("a", "c")
    assert format_term(op.witness) == "(prod var (const b))"
    assert not op.is_definite
    assert report.equivalence_counterexample is not None
    x, y = report.equivalence_counterexample
    assert (x.name, y.name) == ("cb", "cb")
    assert report.divergence_counterexample is None


def test_claim_star_void():
    g = oracles.void2()
    clone = compute_clone(g)
    report = check_claim_star(g, clone, leibniz(g, clone))
    assert report.coconvergence_counterexample is None
    assert report.equivalence_counterexample is not None
    x, y = report.equivalence_counterexample
    assert (x.name, y.name) == ("x", "x")
    assert report.divergence_counterexample is None
    assert not report.holds


def test_claim_star_divergence_matches_reference():
    # every table with n <= 2, then a sample dense enough that many rows are total
    tables = [Pargoid("ab"[:n], table) for n, table in oracles.small_tables(2)]
    tables += [g for _, g in oracles.arbitrary_batch(200, (2, 3, 4), (0.3, 0.6, 0.9, 1.0), 77000)]
    found = 0
    for g in tables:
        clone = compute_clone(g, 1024)
        assert not clone.budget_hit
        report = check_claim_star(g, clone, leibniz(g, clone))
        assert report.divergence_counterexample == oracles.divergence_reference(g), g.table
        found += report.divergence_counterexample is not None
    assert len(tables) == 83 + 200
    assert found == 97


def test_claim_star_needs_closed_clone():
    g = oracles.six()
    with pytest.raises(InputError):
        check_claim_star(g, compute_clone(g, budget=7), None)


def test_validate_certificate_rejects_tampered_cycles():
    g = oracles.three()
    a, b = g.element("a"), g.element("b")
    ok, reason = validate_certificate(g, Cycle((a,)))
    assert not ok and "two entries" in reason
    ok, reason = validate_certificate(g, Cycle((a, b)))
    assert not ok and "close" in reason
    ok, reason = validate_certificate(g, Cycle((b, b)))
    assert not ok and "not below" in reason


def test_validate_certificate_rejects_tampered_violations():
    g = quad()
    cert = decide(g).certificate
    ok, reason = validate_certificate(g, cert)
    assert ok, reason

    # op whose graph the clone never produces
    fake = DefiniteViolation(UnaryPolyOp((0, 0, None, None), VAR),
                             cert.a, cert.c, cert.separator)
    ok, reason = validate_certificate(g, fake)
    assert not ok and "absent" in reason

    # real graph, lying witness
    lying = DefiniteViolation(UnaryPolyOp(cert.op.graph, VAR),
                              cert.a, cert.c, cert.separator)
    ok, reason = validate_certificate(g, lying)
    assert not ok and "witness" in reason

    # pair the op does not converge on
    off = DefiniteViolation(cert.op, cert.a, g.element("b"), cert.separator)
    ok, reason = validate_certificate(g, off)
    assert not ok and "converge" in reason

    # separator that converges on both elements
    clone = compute_clone(g)
    ident = clone.op(0)
    nosep = DefiniteViolation(cert.op, cert.a, cert.c, ident)
    ok, reason = validate_certificate(g, nosep)
    assert not ok and "separate" in reason

    ok, reason = validate_certificate(g, cert, budget=5)
    assert not ok and "budget" in reason


def test_validate_certificate_rejects_graph_values_outside_the_carrier():
    g = quad()
    cert = decide(g).certificate
    for bad in (g.size, 300, -1, 1.0):
        for graph in ((bad,) * g.size, (bad,) + cert.op.graph[1:]):
            tampered = DefiniteViolation(UnaryPolyOp(graph, cert.op.witness),
                                         cert.a, cert.c, cert.separator)
            with pytest.raises(InputError):
                validate_certificate(g, tampered)


def test_validate_certificate_rejects_elements_outside_the_carrier():
    # gen --seed 0 --size 5 --density 0.3: a violation with c = e4, which
    # index -1 would silently stand in for
    g = generators.gen_arbitrary(generators.GenConfig(size=5, seed=0, density=0.3))
    cert = decide(g, 1024).certificate
    assert cert.c == g.element("e4")
    assert validate_certificate(g, cert, 1024) == (True, None)
    for bad in (g.size, 300, -1, 1.0):
        for field in ("a", "c"):
            tampered = dataclasses.replace(cert, **{field: ElementId(bad, "zz")})
            with pytest.raises(InputError):
                validate_certificate(g, tampered, 1024)


def test_decide_builds_op_objects_only_for_a_certificate(monkeypatch):
    built = []
    init = UnaryPolyOp.__init__

    def counting(self, graph, *args):
        built.append(graph)
        init(self, graph, *args)

    monkeypatch.setattr(UnaryPolyOp, "__init__", counting)
    assert isinstance(decide(oracles.six()), Typable)
    # truncated clones, with and without a cycle to salvage a verdict
    with pytest.raises(ResourceExhausted):
        decide(oracles.six(), budget=7)
    assert isinstance(decide(oracles.three(), budget=4).certificate, Cycle)
    assert built == []
    cert = decide(quad()).certificate
    assert sorted(built, key=repr) == sorted([cert.op.graph, cert.separator.graph], key=repr)


def test_decide_builds_witness_terms_only_for_a_certificate(monkeypatch):
    built = []
    init = Prod.__init__

    def counting(self, left, right):
        built.append(self)
        init(self, left, right)

    monkeypatch.setattr(Prod, "__init__", counting)
    for g in (oracles.six(), oracles.doubling_chain(12)):
        assert isinstance(decide(g), Typable)
    assert built == []
    # a certificate builds the products in its two witnesses and no others
    cert = decide(quad()).certificate
    nodes, stack = set(), [cert.op.witness, cert.separator.witness]
    while stack:
        t = stack.pop()
        if isinstance(t, Prod) and id(t) not in nodes:
            nodes.add(id(t))
            stack += (t.left, t.right)
    assert len(built) == len(nodes) > 0
    assert {id(t) for t in built} == nodes


def test_validate_certificate_rejects_indefinite_op():
    # x.b converges on a and c and they are separable, but it is not definite
    g = oracles.six()
    clone = closed(g)
    xb = clone.op(clone.find((3, None, 4, None, None, None)))
    xbd = clone.op(clone.find((5, None, None, None, None, None)))
    cert = DefiniteViolation(xb, g.element("a"), g.element("c"), xbd)
    ok, reason = validate_certificate(g, cert)
    assert not ok and "not definite" in reason


def test_definite_reference_matches_classify():
    instances = [oracles.three(), oracles.six(), oracles.void2(), quad()]
    instances += [g for _, g in oracles.arbitrary_batch(10, (2, 3, 4), (0.3, 0.6), 8000)]
    instances += oracles.typed_literal_batch(40, 8200)
    for g in instances:
        raw = compute_clone(g)
        for reading in polyclone.READINGS:
            flags = typability._definite_reference(raw, reading)
            assert list(flags) == [op.is_definite for op in oracles.ops(classify(raw, reading))]
