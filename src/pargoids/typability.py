"""Typability decision pipeline with checkable untypability certificates.

A pargoid is typable exactly when (i) every definite operation's domain
lies inside a single block of the convergence-profile congruence and
(ii) the application order is well-founded, which on a finite carrier
means its graph is acyclic. Failures yield certificates — a definite
violation pair or an application-order cycle — that re-validate against
the product table without trusting this module's own bookkeeping. On
success the typing is built from the congruence blocks and checked by the
verifier before being returned.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import congruence, polyclone, verifier
from .errors import InputError, InternalError
from .pargoid import less_than
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


@dataclass(frozen=True)
class ResourceExhausted:
    stage: str
    budget: int


Decision = Typable | Untypable | ResourceExhausted


def _rows(g):
    """Sorted defined application row (b, ab) of each element."""
    rows = [[] for _ in range(g.size)]
    for (a, b), c in g.table.items():
        rows[a].append((b, c))
    for r in rows:
        r.sort()
    return rows


def _below(g):
    """below[a] = ascending elements under a in the application order."""
    below = [set() for _ in range(g.size)]
    for (a, b), c in g.table.items():
        below[a].add(b)
        below[a].add(c)
    return [sorted(s) for s in below]


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
    below = _below(g)
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
    that ground type. Remaining elements are processed in a topological
    order of the application order, minimal first: an untyped element a
    takes type(b) -> type(ab) for the smallest-index b with ab defined.
    Inconsistencies here are bug alarms, not user errors — the two
    typability conditions rule them out.
    """
    n = g.size
    rows = _rows(g)
    types = [None] * n
    ground_classes = {}
    for blk in varpi.blocks:
        if any(not rows[e] for e in blk):
            name = f"g{blk[0]}"
            ground_classes[name] = blk
            t = Ground(name)
            for e in blk:
                types[e] = t

    below = _below(g)
    above = [[] for _ in range(n)]
    indegree = [len(below[a]) for a in range(n)]
    for a in range(n):
        for b in below[a]:
            above[b].append(a)
    ready = [e for e in range(n) if indegree[e] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        e = heapq.heappop(ready)
        order.append(e)
        for a in above[e]:
            indegree[a] -= 1
            if indegree[a] == 0:
                heapq.heappush(ready, a)
    if len(order) != n:
        raise InternalError("application order contains a cycle")

    for e in order:
        if types[e] is not None:
            continue
        if not rows[e]:
            raise InternalError("untyped element with an empty application row")
        b, c = rows[e][0]
        if types[b] is None or types[c] is None:
            raise InternalError("application-order descent reached an untyped element")
        types[e] = Arrow(types[b], types[c])
    return Typing(tuple(types), ground_classes)


def decide(g, budget=polyclone.DEFAULT_BUDGET, reading="total", clone=None):
    """Full decision pipeline.

    Clone closure, classification, congruence, condition (i), condition
    (ii), construction, verification. When both conditions fail the
    condition-(i) certificate wins, for determinism. A clone truncated by
    its budget still allows an Untypable verdict through the clone-free
    condition (ii); otherwise the decision is ResourceExhausted rather
    than a guess. A precomputed clone for g may be passed in to be reused
    across readings.
    """
    if clone is None:
        clone = polyclone.compute_clone(g, budget)
    if clone.budget_hit:
        cycle = check_condition_ii(g)
        if cycle is not None:
            return Untypable(cycle)
        return ResourceExhausted("clone", budget)
    clone = polyclone.classify(clone, reading)
    varpi = congruence.leibniz(g, clone)
    violation = check_condition_i(g, clone, varpi)
    if violation is not None:
        return Untypable(violation)
    cycle = check_condition_ii(g)
    if cycle is not None:
        return Untypable(cycle)
    typing = construct_typing(g, varpi)
    report = verifier.verify(g, typing, mode="literal")
    if not report.accepted:
        raise InternalError("constructed typing failed verification")
    return Typable(typing)


@dataclass(frozen=True)
class ClaimStarReport:
    """Diagnostics for a strengthened pair of typability conditions.

    The first two fields split a biconditional: nontrivial-op
    coconvergence implying congruence-equivalence, and the converse.
    eventual_divergence asks that every element reach, by repeated
    application to carrier elements, one whose row is not total. The
    report is informational and never affects the decision.
    """

    coconvergence_implies_equivalence: bool
    equivalence_implies_coconvergence: bool
    eventual_divergence: bool
    coconvergence_counterexample: tuple | None
    equivalence_counterexample: tuple | None
    divergence_counterexample: object | None

    @property
    def holds(self):
        return (self.coconvergence_implies_equivalence
                and self.equivalence_implies_coconvergence
                and self.eventual_divergence)


def check_claim_star(g, clone, varpi):
    """Evaluate both clauses of the strengthened conditions over g."""
    if clone.budget_hit:
        raise InputError("claim diagnostics need a fully closed clone")
    if clone.reading is None:
        clone = polyclone.classify(clone)
    n = g.size
    dom = clone.domains() & ~clone.trivial[:, None]
    co = (dom.T @ dom).tolist()

    if_ok, if_ce = True, None
    onlyif_ok, onlyif_ce = True, None
    for a in range(n):
        for c in range(a, n):
            eq = varpi.class_of[a] == varpi.class_of[c]
            if co[a][c] and not eq and if_ce is None:
                op = clone.op(int((dom[:, a] & dom[:, c]).argmax()))
                if_ok, if_ce = False, (g.element(a), g.element(c), op)
            if eq and not co[a][c] and onlyif_ce is None:
                onlyif_ok, onlyif_ce = False, (g.element(a), g.element(c))

    products = [set() for _ in range(n)]
    row_len = [0] * n
    for (e, _), c in g.table.items():
        products[e].add(c)
        row_len[e] += 1
    successors = [sorted(s) for s in products]
    row_total = [k == n for k in row_len]
    div_ok, div_ce = True, None
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
            div_ok, div_ce = False, g.element(s)
            break
    return ClaimStarReport(if_ok, onlyif_ok, div_ok, if_ce, onlyif_ce, div_ce)


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
    ia, ic = cert.a.index, cert.c.index
    if cert.op.graph[ia] is None or cert.op.graph[ic] is None:
        return False, "op does not converge on both certificate elements"
    if (sep_values[ia] is None) == (sep_values[ic] is None):
        return False, "separator term does not separate the pair"
    return True, None
