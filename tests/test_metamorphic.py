"""Metamorphic relations: changes of the input whose effect on the answer
is known for any correct decider, checked on samples fixed in advance.

- Relabelling the carrier keeps the verdict and the kind of certificate.
  The typing, re-indexed, is isomorphic to the original one, and the
  certificate, mapped through the relabelling, re-validates on the
  relabelled table.
- Setting a typable table H beside G, with no product between them,
  keeps G's verdict.
"""
import dataclasses

from pargoids import generators
from pargoids.errors import ResourceExhausted
from pargoids.pargoid import Pargoid
from pargoids.polyclone import Const, Prod
from pargoids.typability import Cycle, Typable, decide, validate_certificate
from pargoids.types import Typing
from pargoids.verifier import typing_isomorphic


def verdict_class(g, budget):
    try:
        decision = decide(g, budget)
    except ResourceExhausted:
        return "resource-exhausted", None
    if isinstance(decision, Typable):
        return "typable", decision
    return type(decision.certificate).__name__, decision


def permutation(n, seed):
    """A Fisher-Yates shuffle of range(n) drawn from SplitMix64(seed)."""
    rng = generators.SplitMix64(seed)
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        p[i], p[j] = p[j], p[i]
    return p


def relabel(g, p):
    """g with element e moved to index p[e], keeping its name."""
    names = [None] * g.size
    for e, name in enumerate(g.names):
        names[p[e]] = name
    return Pargoid(names, {(p[a], p[b]): p[c] for (a, b), c in g.table.items()})


def map_term(t, element):
    """The term with each constant's element mapped; shared subterms stay
    shared, as term_graph evaluates each node once."""
    out = {}
    stack = [t]
    while stack:
        u = stack[-1]
        if id(u) in out:
            stack.pop()
        elif isinstance(u, Prod):
            todo = [v for v in (u.left, u.right) if id(v) not in out]
            if todo:
                stack += todo
                continue
            out[id(u)] = Prod(out[id(u.left)], out[id(u.right)])
            stack.pop()
        else:
            out[id(u)] = Const(element(u.value)) if isinstance(u, Const) else u
            stack.pop()
    return out[id(t)]


def map_certificate(cert, h, p):
    """The certificate of g, as it reads on h = relabel(g, p)."""
    def element(e):
        return h.element(p[e.index])

    def op(o):
        graph = [None] * h.size
        for x, v in enumerate(o.graph):
            graph[p[x]] = None if v is None else p[v]
        return dataclasses.replace(o, graph=tuple(graph), witness=map_term(o.witness, element))

    if isinstance(cert, Cycle):
        return Cycle(tuple(element(e) for e in cert.path))
    return dataclasses.replace(cert, op=op(cert.op), a=element(cert.a), c=element(cert.c),
                               separator=op(cert.separator))


def permutation_sample():
    """200 gen_arbitrary tables and 80 typed tables, each with its seed."""
    for k in range(200):
        yield generators.gen_arbitrary(generators.GenConfig(
            size=4 + k % 4, seed=73000 + k, density=(0.05, 0.1, 0.15, 0.3)[k % 4])), 73000 + k
    for k in range(80):
        g, _ = generators.gen_typed(generators.GenConfig(
            size=5 + k % 5, seed=74000 + k, mode=("typed_strong", "typed_literal")[k % 2],
            type_depth=2, ground_count=2))
        yield g, 74000 + k


def test_relabelling_keeps_the_verdict_and_its_evidence():
    budget = 1024
    typings = certificates = 0
    for g, seed in permutation_sample():
        p = permutation(g.size, seed + 1_000_000)
        h = relabel(g, p)
        kind, decision = verdict_class(g, budget)
        moved_kind, moved = verdict_class(h, budget)
        assert moved_kind == kind, (g.table, p)
        if kind == "typable":
            typings += 1
            reindexed = Typing(tuple(moved.typing.types[p[e]] for e in range(g.size)))
            assert typing_isomorphic(decision.typing, reindexed), (g.table, p)
        elif decision is not None:
            certificates += 1
            ok, reason = validate_certificate(h, map_certificate(decision.certificate, h, p), budget)
            assert ok, (reason, g.table, p)
    assert (typings, certificates) == (118, 162)


def disjoint_union(g, h):
    """g beside h: h's elements renamed h<i> and shifted past g's."""
    m = g.size
    names = g.names + tuple(f"h{i}" for i in range(h.size))
    table = dict(g.table)
    table.update({(a + m, b + m): c + m for (a, b), c in h.table.items()})
    return Pargoid(names, table)


def test_a_typable_table_beside_another_keeps_its_verdict():
    budget = 4096
    typable = 0
    for k in range(150):
        g = generators.gen_arbitrary(generators.GenConfig(
            size=3 + k % 3, seed=75000 + k, density=(0.1, 0.2, 0.3)[k % 3]))
        h, _ = generators.gen_typed(generators.GenConfig(
            size=3 + k % 3, seed=76000 + k, mode="typed_strong", type_depth=2,
            ground_count=1))
        union = decide(disjoint_union(g, h), budget)
        assert isinstance(union, Typable) == isinstance(decide(g, budget), Typable), \
            (g.table, h.table)
        typable += isinstance(union, Typable)
    assert typable == 34
