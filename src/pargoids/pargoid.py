"""Finite partial groupoids: the carrier + partial product table data model.

A pargoid is a finite set of named elements together with a partial binary
product. The table maps ordered index pairs to result indices; a missing
entry means the product diverges. Values are immutable after construction
and safe to share between threads.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from numbers import Integral

from .errors import InputError

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class ElementId:
    """A carrier element: dense index plus the I/O name."""

    index: int
    name: str


class Pargoid:
    """Carrier names (declaration order) and the partial product table.

    ``table`` maps ``(left_index, right_index)`` to ``result_index``; at most
    one entry per ordered pair, absent entries are divergent products.
    """

    __slots__ = ("names", "table", "_index")

    def __init__(self, names, table):
        names = tuple(names)
        seen = set()
        for name in names:
            if not NAME_RE.match(name):
                raise InputError(f"invalid element name {name!r}")
            if name in seen:
                raise InputError(f"duplicate element name {name!r}")
            seen.add(name)
        if not names:
            raise InputError("a pargoid needs at least one element")
        n = len(names)
        table = dict(table)
        for (a, b), c in table.items():
            if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
                raise InputError(f"product entry {(a, b, c)} out of range")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_index", {nm: i for i, nm in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("Pargoid is immutable")

    @property
    def size(self):
        return len(self.names)

    def element(self, key):
        """ElementId for an index or a name."""
        if isinstance(key, str):
            if key not in self._index:
                raise InputError(f"unknown element {key!r}")
            return ElementId(self._index[key], key)
        i = _ix(self, key)
        return ElementId(i, self.names[i])

    def elements(self):
        return tuple(ElementId(i, nm) for i, nm in enumerate(self.names))

    def __eq__(self, other):
        if not isinstance(other, Pargoid):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __repr__(self):
        return f"Pargoid({list(self.names)!r}, {len(self.table)} products)"


def _ix(g, e):
    if isinstance(e, ElementId):
        e = e.index
    if not isinstance(e, Integral):
        raise InputError(f"element index {e!r} is not an integer")
    if not 0 <= e < g.size:
        raise InputError(f"element index {e} out of range")
    return e


def apply(g, a, b):
    """Product of a and b, or None when it diverges."""
    i, j = _ix(g, a), _ix(g, b)
    k = g.table.get((i, j))
    return None if k is None else g.element(k)


def less_than(g, b, a):
    """Whether b sits below a in the application order.

    b is below a when a applies to b (a·b converges) or b is one of a's
    values (b = a·c for some c).
    """
    i, j = _ix(g, b), _ix(g, a)
    if (j, i) in g.table:
        return True
    return any(left == j and res == i for (left, _), res in g.table.items())


def _parse_text(text):
    names = None
    table = {}
    index = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if names is None:
            if not line.startswith("elements:"):
                raise InputError("expected an 'elements:' line", lineno, 1)
            names = line[len("elements:"):].split()
            for nm in names:
                if not NAME_RE.match(nm):
                    raise InputError(f"invalid element name {nm!r}", lineno, raw.find(nm) + 1)
                if nm in index:
                    raise InputError(f"duplicate element name {nm!r}", lineno, raw.find(nm) + 1)
                index[nm] = len(index)
            if not names:
                raise InputError("no elements declared", lineno, 1)
            continue
        if "=" not in line:
            raise InputError("expected '<left> <right> = <result>'", lineno, 1)
        lhs, _, rhs = line.partition("=")
        pair = lhs.split()
        result = rhs.split()
        if len(pair) != 2 or len(result) != 1:
            raise InputError("expected '<left> <right> = <result>'", lineno, 1)
        for nm in pair + result:
            if nm not in index:
                raise InputError(f"unknown element {nm!r}", lineno, raw.find(nm) + 1)
        key = (index[pair[0]], index[pair[1]])
        if key in table:
            raise InputError(f"duplicate product for pair {pair[0]} {pair[1]}", lineno, 1)
        table[key] = index[result[0]]
    if names is None:
        raise InputError("empty input: expected an 'elements:' line", 1, 1)
    return Pargoid(names, table)


def _parse_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict) or "elements" not in doc:
        raise InputError("JSON pargoid needs an 'elements' array")
    names = doc["elements"]
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise InputError("'elements' must be an array of strings")
    # Pargoid checks the names; text input checks its own, with positions
    index = {nm: i for i, nm in enumerate(names)}
    table = {}
    products = doc.get("products", [])
    if not isinstance(products, list):
        raise InputError("'products' must be an array")
    for entry in products:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InputError(f"product entry must be [left, right, result]: {entry!r}")
        left, right, result = entry
        for nm in entry:
            if not isinstance(nm, str) or nm not in index:
                raise InputError(f"unknown element {nm!r}")
        key = (index[left], index[right])
        if key in table:
            raise InputError(f"duplicate product for pair {left} {right}")
        table[key] = index[result]
    return Pargoid(names, table)


def decode(data):
    """Text of a str, or of UTF-8 bytes; other bytes are an input error."""
    try:
        return bytes(data).decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8: bad byte at offset {exc.start}") from None


def parse(data, format="text"):
    """Parse a pargoid from bytes or str in the text or json format."""
    data = decode(data)
    if format == "text":
        return _parse_text(data)
    if format == "json":
        return _parse_json(data)
    raise InputError(f"unknown format {format!r}")


def product_triples(g):
    """Defined products as (left, right, result) name triples, sorted."""
    triples = [(g.names[a], g.names[b], g.names[c]) for (a, b), c in g.table.items()]
    triples.sort()
    return triples


def serialize(g, format="text"):
    """Canonical byte serialization; parse(serialize(g)) == g."""
    if format == "text":
        lines = [f"elements: {' '.join(g.names)}"]
        lines += [f"{a} {b} = {c}" for a, b, c in product_triples(g)]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        doc = {
            "elements": list(g.names),
            "products": [list(t) for t in product_triples(g)],
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    raise InputError(f"unknown format {format!r}")
