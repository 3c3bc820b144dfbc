"""Unary polynomial operations of a finite pargoid.

The unary polynomial clone is the least set of partial self-maps containing
the identity and every total constant map, closed under the pointwise
product (p.q)(x) = p(x).q(x). Operations are extensional: the clone is
deduplicated by graph, and each operation keeps the first term that
produced it as a witness.

Closure is a worklist fixpoint over graphs, vectorized with numpy: graphs
are rows of carrier indices using the carrier size as the "undefined"
sentinel, each padded with that sentinel to whole 64-bit words. The
undefined value times anything is undefined, so a padded product is
padded too, and one kernel computes a batch of pointwise products: it
gathers both factors' rows a word at a time and looks every cell up in
the product table by one index. compute_clone states the worklist order,
which fixes the op numbering, and how batching keeps it. Sorting the
product rows by their words dedupes a batch: equal rows form runs, each
run's earliest pair is the least pair index in it, whatever order the
sort leaves within the run, and each run's graph is looked up once.

A clone is its arrays: the padded rows, each new op's factor pair, and
one level and one seed byte per op, so memory is linear in the op count
and the op budget is the only bound. Witness terms are built from the
factor pairs on first use, and products are not stored but recomputed
on demand by the same kernel. classify adds boolean masks for the
trivial, constant and definite ops, which the decision reads with the
domain matrix. A UnaryPolyOp is built, by CloneResult.op, only for an op
that leaves the clone: in a certificate, a counterexample or a listing.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .defaults import DEFAULT_BUDGET, READINGS
from .errors import InputError, InternalError
from .pargoid import ElementId, _ix

# uint8 graphs reserve one value for the undefined sentinel
MAX_CARRIER = 255

# Op levels: 0 for a total constant map, 1 for a map constant on its
# domain only (the empty map included), 2 for a nonconstant map. Under a
# reading, an op is nonconstant when its level reaches this value.
_NONCONSTANT_LEVEL = {"total": 1, "on-domain": 2}

# products are computed in chunks of at most this many result cells
_PRODUCT_CHUNK = 1 << 20

# a closure batch holds at most this many pairs, or one op's pairs when
# they are more; it bounds a batch's arrays and the work done past a
# reached budget
_PAIR_CAP = 4096


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
    """One clone member as CloneResult.op builds it: value table, first
    witness term, and flags.

    graph maps each carrier index to a result index or None. The three
    flags are meaningful only when the op came from a classified clone.
    """

    graph: tuple
    witness: PolyTerm
    is_trivial: bool = False
    is_constant: bool = False
    is_definite: bool = False


def _term(terms, factors, i):
    """Op i's first term, building only the subterms not built yet.

    terms holds the seed ops' terms and None for each later op i, whose
    term is the Prod of the terms of the two earlier ops factors[i]. A
    term is built on first use, once, with its subterms shared by
    reference, and stored in terms.
    """
    stack = [i]
    while stack:
        j = stack[-1]
        if terms[j] is None:
            p, q = factors[j].tolist()
            if terms[p] is None or terms[q] is None:
                stack += (p, q)
                continue
            terms[j] = Prod(terms[p], terms[q])
        stack.pop()
    return terms[i]


@dataclass(eq=False, slots=True)
class CloneResult:
    """Clone ops in construction order, as arrays.

    Row i of the read-only graphs array is op i's value table, with the
    carrier size as the undefined value. It is a view of row i of _words,
    which holds the same table padded with the undefined value to whole
    64-bit words. Op i past the seeds is the product of the two ops
    _factors[i], and _terms holds each op's first term once built.
    reading is None until classify adds the read-only boolean masks
    trivial, constant and definite; a classified clone shares the arrays
    and the _terms list of the clone it came from. op(i) is the one way
    to read op i: it builds it as a UnaryPolyOp, with its witness term.
    """

    graphs: np.ndarray
    budget_hit: bool
    _words: np.ndarray
    _mult: np.ndarray
    _level: np.ndarray
    _seed: np.ndarray
    _index: dict
    _factors: np.ndarray
    _terms: list
    reading: str | None = None
    trivial: np.ndarray | None = None
    constant: np.ndarray | None = None
    definite: np.ndarray | None = None

    @property
    def carrier_size(self):
        return self.graphs.shape[1]

    @property
    def op_count(self):
        return self.graphs.shape[0]

    def op(self, i):
        """Op i as a UnaryPolyOp, with its flags once classified."""
        n = self.carrier_size
        graph = tuple(None if v == n else v for v in self.graphs[i].tolist())
        flags = () if self.reading is None else (
            bool(self.trivial[i]), bool(self.constant[i]), bool(self.definite[i]))
        return UnaryPolyOp(graph, _term(self._terms, self._factors, i), *flags)

    def find(self, graph):
        """Index of the op with this graph, or None if absent."""
        n = self.carrier_size
        if len(graph) != n:
            raise InputError("graph length does not match the carrier")
        if not all(v is None or (isinstance(v, Integral) and 0 <= v < n) for v in graph):
            raise InputError("graph value is not an element index")
        return self._index.get(bytes(n if v is None else v for v in graph))

    def domains(self):
        """Boolean op-by-element matrix: where each op converges."""
        return self.graphs != self.carrier_size

    def seeded(self, reading):
        """Mask of the ops that are some p·q with q nonconstant (closed clones)."""
        return self._seed >= _NONCONSTANT_LEVEL[reading]

    def products(self, left, right):
        """Sorted distinct op indices of op(i)·op(j), i in left, j in right.

        Computed on demand from the padded rows, in bounded memory. Only
        a closed clone holds every product, so a truncated one is refused,
        and a missing product is a bug alarm.
        """
        if self.budget_hit:
            raise InputError("products need a fully closed clone")
        n = self.carrier_size
        left = np.asarray(left, dtype=np.intp)
        right = np.asarray(right, dtype=np.intp)
        width = 8 * self._words.shape[1]
        keys = set()
        step = max(1, _PRODUCT_CHUNK // max(1, right.size * width))
        for s in range(0, left.size, step):
            rows = _products(self._words, self._mult, left[s:s + step, None], right)
            rows = rows.reshape(-1, width)
            _, _, first = _runs(rows)
            data = rows.take(first, axis=0).tobytes()
            keys.update(data[k:k + n] for k in range(0, len(data), width))
        ops = [self._index.get(key) for key in keys]
        if None in ops:
            raise InternalError("a product of two ops is missing from the clone")
        return np.array(sorted(ops), dtype=np.intp)


def _products(words, mult, left, right):
    """Padded rows of the pointwise products words[l]·words[r], for the
    op indices l in left and r in right broadcast against each other.

    Both factors are gathered a word at a time, and each cell pair (a, b)
    becomes one index a * (n + 1) + b into the (n + 1)-square product
    table read flat, which fits uint16 as n <= MAX_CARRIER. The multiply
    names its uint16 result type, since a uint8 array times a scalar
    stays uint8 under value-based casting (NumPy before 2) and would wrap.
    Pad cells hold the undefined value, whose products are undefined, so
    the product rows are padded too. Up to 15 elements every index is at
    most (n + 1)² - 1 <= 255, a byte, and is formed eight cells at a time
    on the 64-bit words, no byte carrying into the next.
    """
    k = mult.shape[0]
    if k <= 16:
        idx = words.take(left, axis=0) * np.uint64(k) + words.take(right, axis=0)
        return mult.take(idx.view(np.uint8))
    idx = np.multiply(words.take(left, axis=0).view(np.uint8), k, dtype=np.uint16)
    return mult.take(idx + words.take(right, axis=0).view(np.uint8))


def _worklist_pairs(done, end):
    """Left and right factors of the worklist's pairs of ops done to
    end - 1, in order: for op i, (j, i) for j <= i, then (i, j) for j < i.
    Op i's pairs are thus pairs i² to (i + 1)² - 1 of the whole worklist."""
    span = np.arange(done, end)
    op = np.repeat(span, 2 * span + 1)
    t = np.arange(len(op)) + (done * done - op * op)  # place in the op's pairs
    lead = t <= op
    return np.where(lead, t, op), np.where(lead, op, t - op - 1)


def _runs(rows):
    """Group padded rows into runs of equal rows.

    The rows are sorted by their words: a row of one word by that word,
    with numpy's default unstable sort, a wider row by np.lexsort. Equal
    rows then form runs of the sorted order, and each run's earliest row
    is the least index in it, so no result depends on the sort being
    stable. Returns the order, the runs' starts in it, and each run's
    earliest row.
    """
    packed = rows.view(np.uint64)
    if packed.shape[1] == 1:
        order = packed[:, 0].argsort()
    else:
        order = np.lexsort(packed.T)
    ordered = packed.take(order, axis=0)
    # a run starts where some word differs from the row before; comparing
    # a word column at a time beats one compare of whole rows and .any
    start = np.empty(len(order), dtype=bool)
    start[:1] = True
    np.not_equal(ordered[1:, 0], ordered[:-1, 0], out=start[1:])
    for w in range(1, packed.shape[1]):
        start[1:] |= ordered[1:, w] != ordered[:-1, w]
    heads = start.nonzero()[0]
    return order, heads, np.minimum.reduceat(order, heads)


def compute_clone(g, budget=DEFAULT_BUDGET):
    """Close {identity, constants} under pointwise product, up to budget ops.

    Ops are numbered in discovery order: identity, then the constant map of
    each element (skipping graph duplicates), then products in worklist
    order — for op i, the pairs (j, i) for j <= i, then (i, j) for j < i.
    The pairs are evaluated in batches: each takes the next ops in order,
    as far as the ops already found reach and as many as fit in _PAIR_CAP
    pairs, but at least one. New graphs are numbered in order of their
    earliest pair, which is the numbering of one product at a time.
    The budget counts ops, not products: once it is reached, the next new
    graph sets budget_hit and the closure stops there. Each op is kept as its graph padded to
    whole 64-bit words, and each op past the seeds as its earliest factor
    pair (p, q), from which its witness term is built on first use. Each
    op also records its level (0 total constant, 1 constant on its domain
    only, 2 nonconstant) and its seed: the highest level of a right factor
    q over the pairs p·q that produce it. classify reads the definite
    seeds off the latter. A seed op's level is known: 0 for a constant
    map, and 2 for the identity unless the carrier has one element, when
    the identity is that element's constant map. A later op's level is
    read off its graph's bytes when the op is recorded.
    """
    n = g.size
    if n > MAX_CARRIER:
        raise InputError(f"carrier too large for clone computation (max {MAX_CARRIER})")
    if budget < n + 1:
        raise InputError(f"clone budget must be at least {n + 1}")
    undef = n
    mult = np.full((n + 1, n + 1), undef, dtype=np.uint8)
    for (a, b), c in g.table.items():
        mult[a, b] = c

    width = 8 * -(-n // 8)  # bytes in a row padded to whole 64-bit words
    cap = 256  # holds the n + 1 seed ops, as n <= MAX_CARRIER
    words = np.full((cap, width), undef, dtype=np.uint8).view(np.uint64)
    factors = np.zeros((cap, 2), dtype=np.int32)
    level = np.zeros(cap, dtype=np.int8)
    seeds = np.zeros(cap, dtype=np.int8)
    # the seed ops: the identity, then each constant map; on one element
    # the identity is that element's constant map, so there is one seed op
    m = n + 1 if n > 1 else 1
    padded = words.view(np.uint8)
    padded[0, :n] = np.arange(n)
    padded[1:m, :n] = np.arange(m - 1)[:, None]
    data = padded[:m].tobytes()
    index = {data[i * width:i * width + n]: i for i in range(m)}
    terms = [VAR, *map(Const, g.elements())][:m]
    level[0] = 2 if n > 1 else 0
    pad = bytes((undef,))

    budget_hit = False
    done = 0
    while done < m:
        # ops [done, end) give end² - done² pairs
        end = min(m, max(done + 1, math.isqrt(done * done + _PAIR_CAP)))
        left, right = _worklist_pairs(done, end)
        # dedupe the batch into runs of equal product rows
        rows = _products(words, mult, left, right)
        order, heads, first = _runs(rows)
        # runs in the order of their earliest pair: ops keep discovery order;
        # each run's graph is looked up once
        rank = np.argsort(first)
        earliest = first[rank]
        data = rows.take(earliest, axis=0).tobytes()
        found = [index.get(data[s:s + n]) for s in range(0, len(data), width)]
        new = [r for r, f in enumerate(found) if f is None]
        # the closure stops at the earliest pair of the first new graph
        # past the budget
        if len(new) > budget - m:
            budget_hit = True
            del new[budget - m:]
        if new:
            if m + len(new) > cap:
                cap = max(2 * cap, m + len(new))
                words = np.resize(words, (cap, width // 8))
                factors = np.resize(factors, (cap, 2))
                level = np.resize(level, cap)
                seeds = np.resize(seeds, cap)
            fresh = slice(m, m + len(new))
            levels = []
            for r in new:
                key = data[r * width:r * width + n]
                index[key] = found[r] = m
                m += 1
                # the level from the defined values: more than one distinct
                # value is 2, else 1 if some cell is undefined, else 0
                values = key.replace(pad, b"")
                levels.append(2 if values.count(values[:1]) < len(values)
                              else len(values) < n)
            level[fresh] = levels
            pairs = earliest[new]
            words[fresh] = rows.take(pairs, axis=0).view(np.uint64)
            factors[fresh, 0] = left[pairs]
            factors[fresh, 1] = right[pairs]
            seeds[fresh] = 0
        if budget_hit:
            break
        res = np.empty(len(heads), dtype=np.intp)  # run -> op index
        res[rank] = found
        # runs have distinct graphs, so res holds distinct ops
        seeds[res] = np.maximum(seeds[res],
                                np.maximum.reduceat(level.take(right.take(order)), heads))
        done = end

    words, level, seeds = words[:m].copy(), level[:m].copy(), seeds[:m].copy()
    for arr in (mult, words, level, seeds):
        arr.setflags(write=False)
    # a view of the read-only words is read-only too
    graphs = words.view(np.uint8)[:, :n]
    terms += [None] * (m - len(terms))
    return CloneResult(graphs, budget_hit, words, mult, level, seeds, index,
                       factors[:m].copy(), terms)


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
    # the trivial ops: the total constant maps and the identity, op 0
    trivial = clone._level == 0
    trivial[0] = True
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
    for mask in (trivial, constant, definite):
        mask.setflags(write=False)
    return replace(clone, reading=reading, trivial=trivial, constant=constant,
                   definite=definite)


def lemma2_check(clone):
    """Normal-form check for nonconstant indefinite ops.

    Every nonconstant indefinite op must be the identity or extensionally
    equal to q·(const b) for some nonconstant indefinite q and element b.
    Returns (True, None), or (False, first violating op) in op order.
    """
    if clone.reading is None:
        raise InputError("classify the clone before the normal-form check")
    n = clone.carrier_size
    flagged = np.flatnonzero(~(clone.constant | clone.definite))
    reachable = np.zeros(clone.op_count, dtype=bool)
    reachable[clone.find(tuple(range(n)))] = True
    reachable[clone.products(flagged, [clone.find((b,) * n) for b in range(n)])] = True
    bad = flagged[~reachable[flagged]]
    if bad.size:
        return False, clone.op(int(bad[0]))
    return True, None
