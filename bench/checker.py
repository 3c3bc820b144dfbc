"""Independent checker for the verdicts the benchmark collects.

It works from the product table alone and imports nothing from pargoids,
so a verdict that passes here was not confirmed by the code that made it.
A table is ``(n, table)``: a carrier ``0..n-1`` and a dict mapping
``(a, b)`` to ``ab``.

The reference is the principal typing: first-order unification of
``T_a = T_b -> T_c`` for every product ``ab = c``, by union-find with an
occurs check (Robinson 1965; Martelli & Montanari, TOPLAS 1982). A
literal typing exists exactly when the most general unifier (MGU) exists.
A strong typing (matching types force a defined product) exists exactly
when the MGU exists and is itself total, since every strong typing is an
instance of the MGU and instantiation only adds matching pairs.

The checks below hold whichever of the two notions the package decides:

* typable: the MGU exists and the returned typing satisfies
  ``T(a) = T(b) -> T(c)`` for every ``ab = c``;
* cycle: the path closes, each step lies below the one before it, and the
  MGU does not exist;
* definite violation: both witness terms, evaluated here, converge on the
  two elements (op) and on exactly one of them (separator), and no strong
  typing exists.

Types are hash-consed into a ``TypeStore``, so the doubling chains, whose
types are exponential as trees, stay linear here.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


class TypeStore:
    """Hash-consed arrow types: equal structures get equal integer ids."""

    def __init__(self):
        self.nodes = []  # ("g", name) or ("a", left_id, right_id)
        self._ids = {}
        self._sizes = []

    def _intern(self, node, size):
        tid = self._ids.get(node)
        if tid is None:
            tid = len(self.nodes)
            self._ids[node] = tid
            self.nodes.append(node)
            self._sizes.append(size)
        return tid

    def ground(self, name):
        return self._intern(("g", name), 1)

    def arrow(self, left, right):
        return self._intern(("a", left, right),
                            1 + self._sizes[left] + self._sizes[right])

    def size(self, tid):
        """Node count of the type as a tree (grounds 1, arrows 1 + sides)."""
        return self._sizes[tid]


@dataclass
class Verdict:
    """A verdict in neutral form, as the checker reads it.

    kind is "typable", "cycle" or "definite-violation". Typable verdicts
    carry ``types`` (one TypeStore id per element, in ``store``); cycles
    carry ``path`` (element indices); definite violations carry the op and
    separator witness terms, the pair ``a``, ``c`` and, when the producer
    stated them, the claimed op and separator graphs.
    """

    kind: str
    store: TypeStore | None = None
    types: list | None = None
    path: list | None = None
    op: tuple | None = None
    separator: tuple | None = None
    a: int | None = None
    c: int | None = None
    op_graph: tuple | None = None
    separator_graph: tuple | None = None


# -- principal typing -------------------------------------------------------

def principal_typing(n, table):
    """MGU of the product constraints as (store, types), or None.

    None means the occurs check failed: the constraints force a type to
    contain itself, which is exactly an application-order cycle.
    Unconstrained classes become grounds named ``v<smallest element>``.
    """
    parent = list(range(n))
    arrow = [None] * n  # class representative -> (dom node, cod node)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = []
    for (a, b), c in sorted(table.items()):
        node = len(parent)
        parent.append(node)
        arrow.append((b, c))
        pending.append((a, node))
    while pending:
        x, y = pending.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        ax, ay = arrow[rx], arrow[ry]
        if ax is not None and ay is not None:
            pending.append((ax[0], ay[0]))
            pending.append((ax[1], ay[1]))
        parent[ry] = rx
        if ax is None:
            arrow[rx] = ay

    # occurs check: the class graph (class -> its arrow's sides) is acyclic
    # exactly when a finite unifier exists; build types bottom-up meanwhile
    store = TypeStore()
    least = {}
    for e in range(n):
        least.setdefault(find(e), e)
    tid = {}
    state = {}
    for start in range(n):
        stack = [find(start)]
        while stack:
            r = stack[-1]
            if r in tid:
                stack.pop()
                continue
            sides = arrow[r]
            if sides is None:
                tid[r] = store.ground(f"v{least.get(r, r)}")
                stack.pop()
                continue
            state[r] = "open"
            left, right = find(sides[0]), find(sides[1])
            waiting = False
            for s in (left, right):
                if s not in tid:
                    if state.get(s) == "open":
                        return None
                    stack.append(s)
                    waiting = True
            if not waiting:
                tid[r] = store.arrow(tid[left], tid[right])
                state[r] = "done"
                stack.pop()
    return store, [tid[find(e)] for e in range(n)]


def is_total(table, store, types):
    """Whether matching types always multiply: strong typing's totality."""
    by_type = {}
    for e, t in enumerate(types):
        by_type.setdefault(t, []).append(e)
    for a, t in enumerate(types):
        node = store.nodes[t]
        if node[0] != "a":
            continue
        for b in by_type.get(node[1], ()):
            if (a, b) not in table:
                return False
    return True


def strong_typing_exists(n, table):
    mgu = principal_typing(n, table)
    return mgu is not None and is_total(table, *mgu)


# -- terms ------------------------------------------------------------------
# A term is ("var",), ("const", element) or ("prod", left, right); shared
# subterms are shared tuples, and evaluation visits each object once.

VAR = ("var",)


def term_graph(n, table, term):
    """Value of the term at every element; None where it diverges."""
    val = {}
    stack = [term]
    while stack:
        t = stack[-1]
        if id(t) in val:
            stack.pop()
            continue
        if t[0] == "var":
            val[id(t)] = tuple(range(n))
        elif t[0] == "const":
            val[id(t)] = (t[1],) * n
        else:
            left, right = val.get(id(t[1])), val.get(id(t[2]))
            if left is None or right is None:
                stack.extend(s for s, v in ((t[1], left), (t[2], right))
                             if v is None)
                continue
            val[id(t)] = tuple(
                None if left[x] is None or right[x] is None
                else table.get((left[x], right[x])) for x in range(n))
        stack.pop()
    return val[id(term)]


# -- the verdict check ------------------------------------------------------

def check(n, table, verdict, *, expect_typable=False, expect_sizes=None):
    """Check one verdict against the table; returns None or the reason it fails.

    expect_typable marks an input that is strongly typable by construction;
    expect_sizes maps elements to the tree size their type must have.
    """
    if verdict.kind == "typable":
        return _check_typable(n, table, verdict, expect_sizes)
    if expect_typable:
        return f"{verdict.kind} verdict on an input typable by construction"
    if verdict.kind == "cycle":
        return _check_cycle(n, table, verdict.path)
    if verdict.kind == "definite-violation":
        return _check_violation(n, table, verdict)
    return f"unknown verdict kind {verdict.kind!r}"


def _check_typable(n, table, verdict, expect_sizes):
    if principal_typing(n, table) is None:
        return "typable verdict, but the product constraints have no unifier"
    store, types = verdict.store, verdict.types
    if len(types) != n:
        return "typing does not cover the carrier"
    for (a, b), c in sorted(table.items()):
        if types[a] != store.arrow(types[b], types[c]):
            return f"product {a} {b} = {c} breaks T(a) = T(b) -> T(c)"
    for e, size in (expect_sizes or {}).items():
        if store.size(types[e]) != size:
            return f"type of element {e} has {store.size(types[e])} nodes, expected {size}"
    return None


def _check_cycle(n, table, path):
    if len(path) < 2 or path[0] != path[-1]:
        return "cycle path does not close"
    below = [set() for _ in range(n)]
    for (a, b), c in table.items():
        below[a].add(b)
        below[a].add(c)
    for e, f in zip(path, path[1:]):
        if f not in below[e]:
            return f"step {e} -> {f} is not below in the table"
    if principal_typing(n, table) is not None:
        return "cycle certificate, but the product constraints have a unifier"
    return None


def _check_violation(n, table, v):
    op = term_graph(n, table, v.op)
    sep = term_graph(n, table, v.separator)
    if v.op_graph is not None and tuple(v.op_graph) != op:
        return "op graph differs from its witness term"
    if v.separator_graph is not None and tuple(v.separator_graph) != sep:
        return "separator graph differs from its witness term"
    if op[v.a] is None or op[v.c] is None:
        return "op does not converge on both elements"
    if (sep[v.a] is None) == (sep[v.c] is None):
        return "separator does not converge on exactly one element"
    if strong_typing_exists(n, table):
        return "definite violation, but a strong typing exists"
    return None


# -- readers: package objects and CLI JSON into neutral form ----------------
# Package objects are read by attribute name only (duck typing), so this
# module still imports nothing from the package.

def types_from_objects(store, terms):
    """TypeStore ids for type objects with name or antecedent/consequent."""
    memo = {}
    out = []
    for root in terms:
        stack = [root]
        while stack:
            t = stack[-1]
            if id(t) in memo:
                stack.pop()
                continue
            if not hasattr(t, "antecedent"):
                memo[id(t)] = store.ground(t.name)
                stack.pop()
                continue
            left, right = memo.get(id(t.antecedent)), memo.get(id(t.consequent))
            if left is None or right is None:
                stack.extend(s for s in (t.antecedent, t.consequent)
                             if id(s) not in memo)
                continue
            memo[id(t)] = store.arrow(left, right)
            stack.pop()
        out.append(memo[id(root)])
    return out


def term_from_object(term):
    """Neutral term for objects with left/right, value.index, or neither."""
    memo = {}
    stack = [term]
    while stack:
        t = stack[-1]
        if id(t) in memo:
            stack.pop()
            continue
        if hasattr(t, "left"):
            left, right = memo.get(id(t.left)), memo.get(id(t.right))
            if left is None or right is None:
                stack.extend(s for s in (t.left, t.right) if id(s) not in memo)
                continue
            memo[id(t)] = ("prod", left, right)
        elif hasattr(t, "value"):
            memo[id(t)] = ("const", t.value.index)
        else:
            memo[id(t)] = VAR
        stack.pop()
    return memo[id(term)]


_TYPE_TOKEN = re.compile(r"\s*(->|\(|\)|[A-Za-z0-9_]+)")


def parse_type(store, text):
    """TypeStore id of a type in arrow syntax; arrows associate right."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TYPE_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad type text {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    # each frame holds the atoms of one parenthesized arrow chain
    frames = [[]]
    for tok in tokens:
        if tok == "(":
            frames.append([])
        elif tok == ")":
            inner = _fold_chain(store, frames.pop())
            frames[-1].append(inner)
        elif tok != "->":
            frames[-1].append(store.ground(tok))
    if len(frames) != 1:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    return _fold_chain(store, frames[0])


def _fold_chain(store, atoms):
    if not atoms:
        raise ValueError("empty type")
    t = atoms[-1]
    for left in reversed(atoms[:-1]):
        t = store.arrow(left, t)
    return t


def parse_term(index, text):
    """Neutral term from prefix syntax: var, (const e), (prod l r)."""
    frames = [[]]
    for tok in re.findall(r"\(|\)|[A-Za-z0-9_]+", text):
        if tok == "(":
            frames.append([])
        elif tok == ")":
            head, *args = frames.pop()
            if head == "const":
                node = ("const", index[args[0]])
            elif head == "prod" and len(args) == 2:
                node = ("prod", args[0], args[1])
            else:
                raise ValueError(f"bad term text {text!r}")
            frames[-1].append(node)
        elif tok == "var" and frames[-1] != ["const"]:
            frames[-1].append(VAR)
        else:
            frames[-1].append(tok)
    if len(frames) != 1 or len(frames[0]) != 1:
        raise ValueError(f"bad term text {text!r}")
    return frames[0][0]


def verdict_from_json(index, doc):
    """Neutral verdict from a ``pargoid decide --json`` document, or None
    for a verdict that is neither typable nor untypable."""
    if doc.get("verdict") == "typable":
        store = TypeStore()
        types = [None] * len(index)
        for name, text in doc["typing"]["types"].items():
            types[index[name]] = parse_type(store, text)
        return Verdict("typable", store=store, types=types)
    if doc.get("verdict") != "untypable":
        return None
    cert = doc["certificate"]
    if cert["kind"] == "cycle":
        return Verdict("cycle", path=[index[e] for e in cert["path"]])

    def graph(op):
        return tuple(None if op["graph"][name] is None else index[op["graph"][name]]
                     for name in sorted(index, key=index.get))

    return Verdict("definite-violation",
                   op=parse_term(index, cert["op"]["witness"]),
                   separator=parse_term(index, cert["separator"]["witness"]),
                   a=index[cert["a"]], c=index[cert["c"]],
                   op_graph=graph(cert["op"]),
                   separator_graph=graph(cert["separator"]))
