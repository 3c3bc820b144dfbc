"""Typability decision pipeline with checkable untypability certificates.

decide checks (i) that every definite operation's domain lies inside one
block of the convergence-profile congruence and (ii) that the application
order is acyclic, then builds a typing from the blocks and verifies it.
A verdict guarantees what its evidence shows, and no more:

- a typable verdict's typing passes literal verification, and can fail
  the strong check: the table f w = v, h w = v, g h = v is answered
  typable though g f diverges where the types match, and so is the
  table of ``pargoid gen --seed 71209 --size 8 --density 0.05``;
- a cycle certificate rules out any typing, as a product's factors and
  value have types strictly smaller than its left factor's;
- a definite violation re-validates from the product table alone.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import congruence, polyclone, verifier
from .errors import InputError, InternalError, ResourceExhausted
from .pargoid import _ix, less_than
from .types import Arrow, Ground, Typing


@dataclass(frozen=True)
class Cycle:
    """Application-order cycle: e0..ek with e0 = ek, each e_{i+1} below e_i."""

    path: tuple


@dataclass(frozen=True)
class DefiniteViolation:
    """A definite op converging on two non-equivalent elements a and c.

    separator witnesses the non-equivalence: it converges on exactly one
    of the two.
    """

    op: polyclone.UnaryPolyOp
    a: object
    c: object
    separator: polyclone.UnaryPolyOp


Certificate = Cycle | DefiniteViolation


@dataclass(frozen=True)
class Typable:
    typing: Typing


@dataclass(frozen=True)
class Untypable:
    certificate: Certificate


Decision = Typable | Untypable


def check_condition_i(g, clone, varpi):
    """First definite op whose domain crosses congruence blocks, if any.

    The first definite op in construction order whose domain crosses
    blocks, with its lexicographically first crossing pair: a is the op's
    first domain element and c the first one outside a's block. Absent
    exactly when every definite op's domain lies inside one block.
    """
    ops = np.flatnonzero(clone.definite)
    dom = clone.domains()[ops]
    cls = np.array(varpi.class_of, dtype=np.intp)
    first = dom.argmax(axis=1)
    crossing = dom & (cls != cls[first][:, None])
    hits = np.flatnonzero(crossing.any(axis=1))
    if not hits.size:
        return None
    r = hits[0]
    a, c = int(first[r]), int(crossing[r].argmax())
    sep = congruence.separator(g, clone, a, c)
    if sep is None:
        raise InternalError("elements in different blocks have no separator")
    return DefiniteViolation(clone.op(int(ops[r])), g.element(a), g.element(c), sep)


def check_condition_ii(g):
    """Shortest application-order cycle, or None when the order is acyclic.

    Breadth-first search from every start element; ties between equally
    short cycles go to the smallest start index.
    """
    below = [set() for _ in range(g.size)]
    for (a, b), c in g.table.items():
        below[a].add(b)
        below[a].add(c)
    below = [sorted(v) for v in below]
    best = None
    for s in range(g.size):
        parent = {}
        dist = {s: 0}
        queue = deque([s])
        found = None
        while queue and found is None:
            u = queue.popleft()
            for v in below[u]:
                if v == s:
                    found = u
                    break
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
        if found is None:
            continue
        length = dist[found] + 1
        if best is None or length < best[0]:
            chain = []
            u = found
            while u != s:
                chain.append(u)
                u = parent[u]
            path = [s] + chain[::-1] + [s]
            best = (length, tuple(path))
    if best is None:
        return None
    return Cycle(tuple(g.element(e) for e in best[1]))


def construct_typing(g, varpi):
    """Type assignment from the congruence blocks.

    Blocks containing an element with an empty application row become
    ground types named g<smallest member index>; all their members share
    that ground type. Every other element a takes type(b) -> type(ab) for
    the smallest-index b with ab defined, once those two are typed: a
    memoized descent along these dependencies. Inconsistencies here are
    bug alarms, not user errors — the two typability conditions rule them
    out.
    """
    n = g.size
    first = [None] * n  # (b, ab) for the smallest b with ab defined
    for (a, b), c in g.table.items():
        if first[a] is None or b < first[a][0]:
            first[a] = (b, c)
    types = [None] * n
    for blk in varpi.blocks:
        if any(first[e] is None for e in blk):
            t = Ground(f"g{blk[0]}")
            for e in blk:
                types[e] = t

    entered = [False] * n  # an entered element met again untyped closes a cycle
    for root in range(n):
        stack = [root]
        while stack:
            e = stack[-1]
            if types[e] is not None:
                stack.pop()
                continue
            if first[e] is None:
                raise InternalError("untyped element with an empty application row")
            b, c = first[e]
            if types[b] is not None and types[c] is not None:
                types[e] = Arrow(types[b], types[c])
                stack.pop()
            elif entered[e]:
                raise InternalError("application order contains a cycle")
            else:
                entered[e] = True
                stack += (b, c)
    return Typing(tuple(types))


def decide(g, budget=polyclone.DEFAULT_BUDGET, reading="total", clone=None):
    """Full decision pipeline.

    Clone closure, classification, congruence, condition (i), condition
    (ii), construction, verification. When both conditions fail the
    condition-(i) certificate wins, for determinism. A clone truncated by
    its budget still allows an Untypable verdict through the clone-free
    condition (ii); otherwise decide raises ResourceExhausted rather than
    guess. A precomputed clone for g may be passed in to be reused
    across readings.
    """
    if clone is None:
        clone = polyclone.compute_clone(g, budget)
    if clone.budget_hit:
        cycle = check_condition_ii(g)
        if cycle is not None:
            return Untypable(cycle)
        raise ResourceExhausted("clone", budget)
    clone = polyclone.classify(clone, reading)
    varpi = congruence.leibniz(g, clone)
    violation = check_condition_i(g, clone, varpi)
    if violation is not None:
        return Untypable(violation)
    cycle = check_condition_ii(g)
    if cycle is not None:
        return Untypable(cycle)
    typing = construct_typing(g, varpi)
    report = verifier.verify(g, typing)
    if not report.accepted:
        raise InternalError("constructed typing failed verification")
    return Typable(typing)


@dataclass(frozen=True)
class ClaimStarReport:
    """Diagnostics for a strengthened pair of typability conditions.

    Each clause holds exactly when its counterexample is None. The first
    two split a biconditional: nontrivial-op coconvergence implying
    congruence-equivalence, refuted by (a, c, op), and the converse,
    refuted by (a, c). Eventual divergence asks that every element reach,
    by repeated application to carrier elements, one whose row is not
    total; it is refuted by an element that cannot. The report is
    informational and never affects the decision.
    """

    coconvergence_counterexample: tuple | None
    equivalence_counterexample: tuple | None
    divergence_counterexample: object | None

    @property
    def holds(self):
        return (self.coconvergence_counterexample is None
                and self.equivalence_counterexample is None
                and self.divergence_counterexample is None)


def check_claim_star(g, clone, varpi):
    """Evaluate both clauses of the strengthened conditions over g."""
    if clone.budget_hit:
        raise InputError("claim diagnostics need a fully closed clone")
    if clone.reading is None:
        clone = polyclone.classify(clone)
    n = g.size
    dom = clone.domains() & ~clone.trivial[:, None]
    co = (dom.T @ dom).tolist()

    if_ce = onlyif_ce = None
    for a in range(n):
        for c in range(a, n):
            eq = varpi.class_of[a] == varpi.class_of[c]
            if co[a][c] and not eq and if_ce is None:
                op = clone.op(int((dom[:, a] & dom[:, c]).argmax()))
                if_ce = (g.element(a), g.element(c), op)
            if eq and not co[a][c] and onlyif_ce is None:
                onlyif_ce = (g.element(a), g.element(c))

    products = [set() for _ in range(n)]
    row_len = [0] * n
    for (e, _), c in g.table.items():
        products[e].add(c)
        row_len[e] += 1
    successors = [sorted(s) for s in products]
    row_total = [k == n for k in row_len]
    div_ce = None
    for s in range(n):
        seen = {s}
        queue = deque([s])
        escapes = False
        while queue:
            u = queue.popleft()
            if not row_total[u]:
                escapes = True
                break
            for v in successors[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if not escapes:
            div_ce = g.element(s)
            break
    return ClaimStarReport(if_ce, onlyif_ce, div_ce)


def _definite_reference(clone, reading):
    """Definite flags recomputed from scratch by synchronous sweeps.

    Flags derive directly from the graph rows, and each sweep adds every
    product of a definite op with such a constant to the closure's seeds
    until stable, independently of classify's worklist propagation;
    certificate checking uses this so it does not trust the decision
    pipeline's cached flags.
    """
    n = clone.carrier_size
    ident = list(range(n))
    rows = clone.graphs.tolist()
    values = [set(row) for row in rows]
    const_total = np.array([n not in v and len(v) == 1 for v in values], dtype=bool)
    trivial = const_total | np.array([row == ident for row in rows], dtype=bool)
    constant = const_total if reading == "total" else \
        np.array([len(v - {n}) <= 1 for v in values], dtype=bool)

    consts = np.flatnonzero(constant)
    definite = clone.seeded(reading) & ~trivial
    while True:
        new = definite.copy()
        new[clone.products(np.flatnonzero(definite), consts)] = True
        new &= ~trivial
        if (new == definite).all():
            return definite
        definite = new


def validate_certificate(g, cert, budget=polyclone.DEFAULT_BUDGET, reading="total"):
    """Re-check a certificate against g from scratch; returns (ok, reason).

    Cycles are checked directly against the product table. Definite
    violations are checked by recomputing the clone, rederiving the
    definite fixpoint independently, and evaluating both witness terms
    element by element.
    """
    if isinstance(cert, Cycle):
        path = cert.path
        if len(path) < 2:
            return False, "cycle path needs at least two entries"
        if path[0].index != path[-1].index:
            return False, "cycle path does not close"
        for e, f in zip(path, path[1:]):
            if not less_than(g, f.index, e.index):
                return False, f"{f.name} is not below {e.name}"
        return True, None

    ia, ic = _ix(g, cert.a), _ix(g, cert.c)
    clone = polyclone.compute_clone(g, budget)
    if clone.budget_hit:
        return False, "clone budget exhausted during revalidation"
    idx = clone.find(cert.op.graph)
    if idx is None:
        return False, "op graph absent from the recomputed clone"
    if polyclone.term_graph(g, cert.op.witness) != cert.op.graph:
        return False, "op witness does not evaluate to the op graph"
    sep_values = polyclone.term_graph(g, cert.separator.witness)
    if sep_values != cert.separator.graph:
        return False, "separator witness does not evaluate to its graph"
    definite = _definite_reference(clone, reading)
    if not definite[idx]:
        return False, "op is not definite under independent recomputation"
    if cert.op.graph[ia] is None or cert.op.graph[ic] is None:
        return False, "op does not converge on both certificate elements"
    if (sep_values[ia] is None) == (sep_values[ic] is None):
        return False, "separator term does not separate the pair"
    return True, None
