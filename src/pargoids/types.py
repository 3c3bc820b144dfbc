"""Type terms: the absolutely free algebra of arrow types over ground names.

Terms are interned (hash-consed): Ground(name) and Arrow(a, c) return one
shared object per structure, so equality is identity, hashing is O(1),
and a typing whose types share subterms is stored as a DAG. Each term
also carries its tree node count. The pool holds terms through weak
references, so terms no longer used elsewhere are freed. Terms are
immutable, and a pickle or copy round-trip returns the same object.

Every function here that walks a term is iterative, so nesting depth is
bounded by memory, not by the interpreter's recursion limit.
"""
from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError, dataclass

from .errors import InputError

GROUND_RE = re.compile(r"[A-Za-z0-9_]+")


class _Term:
    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        """The dataclass-style repr, built without recursion."""
        parts = []
        stack = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                parts.append(t)
            elif isinstance(t, Ground):
                parts.append(f"Ground(name={t.name!r})")
            else:
                parts.append("Arrow(antecedent=")
                stack += (")", t.consequent, ", consequent=", t.antecedent)
        return "".join(parts)


class Ground(_Term):
    __slots__ = ("name",)
    _size = 1
    _pool = weakref.WeakValueDictionary()

    def __new__(cls, name):
        t = cls._pool.get(name)
        if t is None:
            t = object.__new__(cls)
            object.__setattr__(t, "name", name)
            cls._pool[name] = t
        return t

    def __reduce__(self):
        return Ground, (self.name,)


class Arrow(_Term):
    __slots__ = ("antecedent", "consequent", "_size")
    _pool = weakref.WeakValueDictionary()

    def __new__(cls, antecedent, consequent):
        key = (antecedent, consequent)
        t = cls._pool.get(key)
        if t is None:
            t = object.__new__(cls)
            object.__setattr__(t, "antecedent", antecedent)
            object.__setattr__(t, "consequent", consequent)
            object.__setattr__(t, "_size", 1 + antecedent._size + consequent._size)
            cls._pool[key] = t
        return t

    def __reduce__(self):
        return Arrow, (self.antecedent, self.consequent)


TypeTerm = Ground | Arrow


def type_size(t):
    """Node count of the tree: grounds are 1, an arrow is 1 + both components."""
    return t._size


def format_type(t):
    """Right-associative arrow syntax; parentheses only on arrow antecedents.

    Each chain of right-nested arrows is joined once, and an arrow
    antecedent shared between chains is rendered once.
    """
    def spine(u):
        heads = []
        while isinstance(u, Arrow):
            heads.append(u.antecedent)
            u = u.consequent
        return heads, u

    wrapped = {}  # arrow antecedent -> its rendering in parentheses
    stack = [t]
    while True:
        u = stack[-1]
        if u in wrapped:
            stack.pop()
            continue
        heads, last = spine(u)
        todo = [h for h in heads if isinstance(h, Arrow) and h not in wrapped]
        if todo:
            stack += todo
            continue
        text = " -> ".join([wrapped[h] if isinstance(h, Arrow) else h.name
                            for h in heads] + [last.name])
        stack.pop()
        if not stack:
            return text
        wrapped[u] = f"({text})"


def parse_type(s):
    """Inverse of format_type; arrows associate to the right.

    One list of chain members is kept per open parenthesis, so nesting
    depth costs memory, not stack.
    """
    def skip_ws(pos):
        while pos < len(s) and s[pos] in " \t":
            pos += 1
        return pos

    def error(message, pos):
        raise InputError(message, 1, pos + 1)

    pos = 0
    chains = [[]]  # the innermost open chain is last
    while True:
        pos = skip_ws(pos)
        if pos < len(s) and s[pos] == "(":
            chains.append([])
            pos += 1
            continue
        m = GROUND_RE.match(s, pos)
        if not m:
            error("expected a ground name or '('", pos)
        pos = m.end()
        term = Ground(m.group())
        while True:
            chains[-1].append(term)
            pos = skip_ws(pos)
            if s.startswith("->", pos):
                pos += 2
                break
            chain = chains.pop()
            term = chain.pop()
            while chain:
                term = Arrow(chain.pop(), term)
            if not chains:
                if pos != len(s):
                    error("trailing input after type", pos)
                return term
            if pos >= len(s) or s[pos] != ")":
                error("expected ')'", pos)
            pos += 1


def subterms(t):
    """All subterms of t, including t itself."""
    out = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            if isinstance(u, Arrow):
                stack += (u.antecedent, u.consequent)
    return out


@dataclass(frozen=True)
class Typing:
    """A total type assignment over a carrier: types[i] is the type of element i."""

    types: tuple
