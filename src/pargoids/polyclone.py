"""Unary polynomial operations of a finite pargoid.

The unary polynomial clone is the least set of partial self-maps containing
the identity and every total constant map, closed under the pointwise
product (p.q)(x) = p(x).q(x). Operations are extensional: the clone is
deduplicated by graph, and each operation keeps the first term that
produced it as a witness.

Closure is a worklist fixpoint over graphs, vectorized with numpy: graphs
are uint8 matrix rows using the carrier size as the "undefined" sentinel,
so one fancy-indexed lookup computes a whole batch of pointwise products.
A batch is deduplicated by one stable sort: each result row, zero-padded
to whole 64-bit words, is sorted by its words, and equal rows then form
runs headed by their earliest pair, for every carrier size.
Products are not stored: besides its graph, each op keeps one level and
one seed byte, so memory is linear in the op count and the op budget is
the only bound. Products needed later are recomputed on demand.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError, ResourceExhausted
from .pargoid import ElementId, _ix, apply

DEFAULT_BUDGET = 8192
READINGS = ("total", "on-domain")

# uint8 graphs reserve one value for the undefined sentinel
MAX_CARRIER = 255

# Op levels: 0 for a total constant map, 1 for a map constant on its
# domain only (the empty map included), 2 for a nonconstant map. Under a
# reading, an op is nonconstant when its level reaches this value.
_NONCONSTANT_LEVEL = {"total": 1, "on-domain": 2}

# products are computed in chunks of at most this many result cells
_PRODUCT_CHUNK = 1 << 20


@dataclass(frozen=True)
class Var:
    """The single variable."""


@dataclass(frozen=True)
class Const:
    value: ElementId


@dataclass(frozen=True)
class Prod:
    left: "PolyTerm"
    right: "PolyTerm"


PolyTerm = Var | Const | Prod

VAR = Var()


def eval_term(g, t, e):
    """Value of the term at e, or None where evaluation diverges."""
    if isinstance(t, Var):
        return g.element(_ix(g, e))
    if isinstance(t, Const):
        return g.element(_ix(g, t.value))
    left = eval_term(g, t.left, e)
    if left is None:
        return None
    right = eval_term(g, t.right, e)
    if right is None:
        return None
    return apply(g, left, right)


def term_graph(g, t):
    """The term's value table over the whole carrier; None = diverges.

    Shared subterms are evaluated once, so witness terms of deep clones
    (one new product node per op, children shared by reference) stay
    linear instead of exponential.
    """
    val = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in val:
            continue
        if isinstance(node, Var):
            val[id(node)] = tuple(range(g.size))
        elif isinstance(node, Const):
            val[id(node)] = (_ix(g, node.value),) * g.size
        else:
            left = val.get(id(node.left))
            right = val.get(id(node.right))
            if left is None or right is None:
                stack.append(node)
                if left is None:
                    stack.append(node.left)
                if right is None:
                    stack.append(node.right)
            else:
                val[id(node)] = tuple(
                    None if left[i] is None or right[i] is None
                    else g.table.get((left[i], right[i]))
                    for i in range(g.size))
    return val[id(t)]


def term_size(t):
    """Node count: leaves are 1, a product is 1 + both sides."""
    if isinstance(t, Prod):
        return 1 + term_size(t.left) + term_size(t.right)
    return 1


def format_term(t):
    """Prefix syntax: var, (const b), (prod l r)."""
    if isinstance(t, Var):
        return "var"
    if isinstance(t, Const):
        return f"(const {t.value.name})"
    return f"(prod {format_term(t.left)} {format_term(t.right)})"


_TERM_WORD = re.compile(r"[A-Za-z0-9_]+")


def _tokenize_term(s):
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in " \t":
            i += 1
        elif ch in "()":
            toks.append((ch, i))
            i += 1
        else:
            m = _TERM_WORD.match(s, i)
            if not m:
                raise InputError(f"unexpected character {ch!r} in term", 1, i + 1)
            toks.append((m.group(), i))
            i = m.end()
    return toks


def _parse_term_at(g, toks, k, end):
    if k >= len(toks):
        raise InputError("unexpected end of term", 1, end + 1)
    text, pos = toks[k]
    if text == "var":
        return VAR, k + 1
    if text != "(":
        raise InputError(f"expected 'var' or '(', got {text!r}", 1, pos + 1)
    if k + 1 >= len(toks):
        raise InputError("unexpected end of term", 1, end + 1)
    head, hpos = toks[k + 1]
    if head == "const":
        if k + 2 >= len(toks):
            raise InputError("unexpected end of term", 1, end + 1)
        name, npos = toks[k + 2]
        if name in "()":
            raise InputError("expected an element name", 1, npos + 1)
        try:
            term = Const(g.element(name))
        except InputError as exc:
            raise InputError(exc.message, 1, npos + 1) from None
        k += 3
    elif head == "prod":
        left, k = _parse_term_at(g, toks, k + 2, end)
        right, k = _parse_term_at(g, toks, k, end)
        term = Prod(left, right)
    else:
        raise InputError(f"expected 'const' or 'prod', got {head!r}", 1, hpos + 1)
    if k >= len(toks):
        raise InputError("unexpected end of term", 1, end + 1)
    if toks[k][0] != ")":
        raise InputError("expected ')'", 1, toks[k][1] + 1)
    return term, k + 1


def parse_term(g, s):
    """Inverse of format_term; constant names resolve against the carrier."""
    toks = _tokenize_term(s)
    term, k = _parse_term_at(g, toks, 0, len(s))
    if k != len(toks):
        raise InputError("trailing input after term", 1, toks[k][1] + 1)
    return term


@dataclass(frozen=True)
class UnaryPolyOp:
    """One clone member: value table, first witness term, and flags.

    graph maps each carrier index to a result index or None. The three
    flags are meaningful only after classify has run on the owning clone.
    """

    graph: tuple
    witness: PolyTerm
    is_trivial: bool = False
    is_constant: bool = False
    is_definite: bool = False

    @property
    def domain(self):
        return tuple(i for i, v in enumerate(self.graph) if v is not None)

    def converges_on(self, e):
        return self.graph[e if isinstance(e, int) else e.index] is not None


class CloneResult:
    """Clone ops in construction order, with their graphs and seed levels.

    Treated as immutable once built; the backing arrays are read-only.
    reading is None until classify fills the flags.
    """

    __slots__ = ("ops", "budget_hit", "reading", "carrier_size",
                 "_graphs", "_mult", "_level", "_seed", "_index")

    def __init__(self, ops, budget_hit, reading, carrier_size,
                 graphs, mult, level, seed, index):
        self.ops = ops
        self.budget_hit = budget_hit
        self.reading = reading
        self.carrier_size = carrier_size
        self._graphs = graphs
        self._mult = mult
        self._level = level
        self._seed = seed
        self._index = index

    @property
    def op_count(self):
        return len(self.ops)

    def find(self, graph):
        """Index of the op with this graph, or None if absent."""
        if len(graph) != self.carrier_size:
            raise InputError("graph length does not match the carrier")
        key = bytes(self.carrier_size if v is None else v for v in graph)
        return self._index.get(key)

    def domains(self):
        """Boolean op-by-element matrix: where each op converges."""
        return self._graphs != self.carrier_size

    def seeded(self, reading):
        """Mask of the ops that are some p·q with q nonconstant (closed clones)."""
        return self._seed >= _NONCONSTANT_LEVEL[reading]

    def products(self, left, right):
        """Sorted distinct op indices of ops[i]·ops[j], i in left, j in right.

        Computed on demand from the graphs, in bounded memory. A closed
        clone holds every product, so a missing one is a bug alarm; on a
        truncated clone, products it has not reached are left out.
        """
        n = self.carrier_size
        right = self._graphs[right].astype(np.intp)
        keys = set()
        step = max(1, _PRODUCT_CHUNK // max(1, right.size))
        for s in range(0, len(left), step):
            rows = self._graphs[left[s:s + step]].astype(np.intp)[:, None, :]
            data = self._mult[rows * (n + 1) + right[None]].tobytes()
            keys.update(data[k:k + n] for k in range(0, len(data), n))
        ops = [self._index.get(key) for key in keys]
        if None in ops:
            if not self.budget_hit:
                raise InternalError("a product of two ops is missing from the clone")
            ops = [op for op in ops if op is not None]
        return np.array(sorted(ops), dtype=np.intp)

    def product_edge(self, i, j):
        """Index of ops[i]·ops[j], or None when a truncated clone lacks it."""
        if not (0 <= i < len(self.ops) and 0 <= j < len(self.ops)):
            raise InputError("op index out of range")
        r = self.products([i], [j])
        return int(r[0]) if r.size else None


def _graph_tuple(row, undef):
    return tuple(None if v == undef else int(v) for v in row)


def compute_clone(g, budget=DEFAULT_BUDGET, *, exact=False):
    """Close {identity, constants} under pointwise product, up to budget ops.

    Ops are numbered in discovery order: identity, then the constant map of
    each element (skipping graph duplicates), then products in worklist
    order — for the op under work, pairs (earlier, it) before (it, earlier).
    The budget counts ops, not products; reaching it sets budget_hit, or
    raises when the caller asked for exactness. Each op also records its
    level (0 total constant, 1 constant on its domain only, 2 nonconstant)
    and its seed: the highest level of a right factor q over the pairs p·q
    that produce it. classify reads the definite seeds off the latter.
    """
    n = g.size
    if n > MAX_CARRIER:
        raise InputError(f"carrier too large for clone computation (max {MAX_CARRIER})")
    if budget < n + 1:
        raise InputError(f"clone budget must be at least {n + 1}")
    undef = n
    nn = n + 1
    mult = np.full(nn * nn, undef, dtype=np.uint8)
    for (a, b), c in g.table.items():
        mult[a * nn + b] = c

    cap = 256  # holds the n + 1 seed ops, as n <= MAX_CARRIER
    graphs = np.full((cap, n), undef, dtype=np.uint8)
    level = np.zeros(cap, dtype=np.int8)
    seeds = np.zeros(cap, dtype=np.int8)
    witnesses = []
    index = {}
    m = 0

    def seed(row, term):
        nonlocal m
        key = row.tobytes()
        if key not in index:
            graphs[m] = row
            index[key] = m
            witnesses.append(term)
            m += 1

    seed(np.arange(n, dtype=np.uint8), VAR)
    for e in range(n):
        seed(np.full(n, e, dtype=np.uint8), Const(g.element(e)))

    width = 8 * -(-n // 8)  # bytes in a row padded to whole 64-bit words
    budget_hit = False
    done = 0
    while done < m:
        i = done
        values = set(graphs[i].tolist())
        level[i] = 2 if len(values - {undef}) > 1 else int(undef in values)
        k = 2 * i + 1
        left = np.empty(k, dtype=np.intp)
        right = np.empty(k, dtype=np.intp)
        left[: i + 1] = np.arange(i + 1)
        right[: i + 1] = i
        left[i + 1:] = i
        right[i + 1:] = np.arange(i)
        # result rows, zero-padded to whole 64-bit words
        packed = np.zeros((k, width), dtype=np.uint8)
        rows = packed[:, :n]
        rows[:] = mult[graphs[left].astype(np.intp) * nn + graphs[right].astype(np.intp)]
        # dedupe the batch: sort the rows stably by their words, so equal
        # rows form runs of the sorted order, starting at heads, and the
        # stable sort puts each run's earliest pair, first[u], at its head
        words = packed.view(np.uint64)
        order = np.lexsort(words.T)
        ordered = words[order]
        start = np.ones(k, dtype=bool)
        start[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        heads = np.flatnonzero(start)
        first = order[heads]
        res = np.empty(len(first), dtype=np.intp)  # run -> op index
        # runs in the order of their earliest pair: ops keep discovery order
        for u in np.argsort(first, kind="stable"):
            p = int(first[u])
            key = rows[p].tobytes()
            op = index.get(key)
            if op is None:
                if m >= budget:
                    budget_hit = True
                    break
                if m == cap:
                    cap *= 2
                    graphs = np.resize(graphs, (cap, n))
                    level = np.resize(level, cap)
                    seeds = np.resize(seeds, cap)
                    seeds[m:] = 0  # np.resize fills by repeating
                op = m
                graphs[m] = rows[p]
                index[key] = m
                witnesses.append(Prod(witnesses[int(left[p])], witnesses[int(right[p])]))
                m += 1
            res[u] = op
        if budget_hit:
            break
        # runs have distinct graphs, so res holds distinct ops
        seeds[res] = np.maximum(seeds[res],
                                np.maximum.reduceat(level[right][order], heads))
        done += 1

    if budget_hit and exact:
        raise ResourceExhausted("clone", budget)
    graphs, level, seeds = graphs[:m].copy(), level[:m].copy(), seeds[:m].copy()
    for arr in (mult, graphs, level, seeds):
        arr.setflags(write=False)
    ops = tuple(
        UnaryPolyOp(_graph_tuple(graphs[i], undef), witnesses[i]) for i in range(m)
    )
    return CloneResult(ops, budget_hit, None, n, graphs, mult, level, seeds, index)


def classify(clone, reading="total"):
    """New CloneResult with trivial/constant/definite flags filled.

    The definite ops are the least set of nontrivial ops holding every p·q
    with q nonconstant (read off the closure's seeds) and closed under
    p ↦ p·c for definite p and constant c (products computed on demand).
    Under the "total" reading a constant op is a total constant map; under
    "on-domain" any op with at most one distinct defined value counts as
    constant (the empty op vacuously so).
    """
    if reading not in READINGS:
        raise InputError(f"unknown constant reading {reading!r}")
    if clone.budget_hit:
        raise InputError("cannot classify a clone truncated by its budget")
    threshold = _NONCONSTANT_LEVEL[reading]
    n = clone.carrier_size
    ident = (clone._graphs == np.arange(n, dtype=np.uint8)).all(axis=1)
    trivial = ident | (clone._level == 0)
    constant = clone._level < threshold
    nontrivial = ~trivial
    definite = nontrivial & (clone._seed >= threshold)
    consts = np.flatnonzero(constant)
    frontier = np.flatnonzero(definite)
    while frontier.size:
        res = clone.products(frontier, consts)
        new = res[nontrivial[res] & ~definite[res]]
        definite[new] = True
        frontier = new

    ops = tuple(
        UnaryPolyOp(op.graph, op.witness,
                    bool(trivial[i]), bool(constant[i]), bool(definite[i]))
        for i, op in enumerate(clone.ops)
    )
    return CloneResult(ops, False, reading, n, clone._graphs, clone._mult,
                       clone._level, clone._seed, clone._index)


def lemma2_check(clone):
    """Normal-form check for nonconstant indefinite ops.

    Every nonconstant indefinite op must be the identity or extensionally
    equal to q·(const b) for some nonconstant indefinite q and element b.
    Returns (True, None), or (False, first violating op) in op order.
    """
    if clone.reading is None:
        raise InputError("classify the clone before the normal-form check")
    n = clone.carrier_size
    flagged = [i for i, op in enumerate(clone.ops)
               if not op.is_constant and not op.is_definite]
    ident_idx = clone.find(tuple(range(n)))
    consts = [clone.find((b,) * n) for b in range(n)]
    reachable = set(clone.products(flagged, consts).tolist())
    for i in flagged:
        if i != ident_idx and i not in reachable:
            return False, clone.ops[i]
    return True, None
