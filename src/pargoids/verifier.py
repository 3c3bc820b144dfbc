"""Independent checker of the typed-applicative-algebra axioms.

Checks a (pargoid, typing) pair with concrete witnesses for every
violation: the inhabited type set is closed under arrow components, and
defined products respect arrow types. The totality direction — matching
types force a defined product — is checked separately, and only strong
acceptance requires it. A typing gives each element exactly one type, so
the type blocks partition the carrier and distinct types never share a
block: those two axioms hold by construction and are not checked. This
module imports nothing from the decision pipeline, so it can serve as
its oracle.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError
from .pargoid import decode
from .types import Arrow, Typing, format_type, parse_type


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of every axiom check.

    accepted is literal acceptance: strictness and the forward product
    axiom; accepted_strong adds totality.
    """

    strictness_ok: bool
    axiom1_forward_ok: bool
    axiom1_totality_ok: bool
    failures: tuple

    @property
    def accepted(self):
        return self.strictness_ok and self.axiom1_forward_ok

    @property
    def accepted_strong(self):
        return self.accepted and self.axiom1_totality_ok


def verify(g, typing):
    """Check the axioms of g under the typing; returns a VerifyReport."""
    n = g.size
    if len(typing.types) != n:
        raise InputError("typing does not match the carrier size")
    for e, t in enumerate(typing.types):
        if t is None:
            raise InputError(f"element {g.names[e]} has no type")

    failures = []
    blocks = {}
    for e, t in enumerate(typing.types):
        blocks.setdefault(t, []).append(e)

    # the inhabited types must be closed under arrow components; types are
    # rendered only to report a failure, as deep typings render exponentially
    missing = [(t, part) for t in blocks if isinstance(t, Arrow)
               for part in (t.antecedent, t.consequent) if part not in blocks]
    strictness_ok = not missing
    for t, part in sorted(missing, key=lambda m: format_type(m[0])):
        failures.append(Violation(
            "strictness",
            f"type {format_type(t)} is inhabited but its "
            f"component {format_type(part)} is not"))

    axiom1_forward_ok = True
    for (a, b), c in sorted(g.table.items()):
        ta, tb, tc = typing.types[a], typing.types[b], typing.types[c]
        names = f"{g.names[a]} {g.names[b]} = {g.names[c]}"
        if not isinstance(ta, Arrow):
            axiom1_forward_ok = False
            failures.append(Violation(
                "axiom1-forward",
                f"{names}: left element has non-arrow type {format_type(ta)}"))
        elif tb != ta.antecedent:
            axiom1_forward_ok = False
            failures.append(Violation(
                "axiom1-forward",
                f"{names}: right element has type {format_type(tb)}, "
                f"expected {format_type(ta.antecedent)}"))
        elif tc != ta.consequent:
            axiom1_forward_ok = False
            failures.append(Violation(
                "axiom1-forward",
                f"{names}: product has type {format_type(tc)}, "
                f"expected {format_type(ta.consequent)}"))

    axiom1_totality_ok = True
    for a, ta in enumerate(typing.types):
        if not isinstance(ta, Arrow):
            continue
        for b in blocks.get(ta.antecedent, ()):
            if (a, b) not in g.table:
                axiom1_totality_ok = False
                failures.append(Violation(
                    "axiom1-totality",
                    f"{g.names[a]} {g.names[b]} diverges despite matching "
                    f"types {format_type(ta)} and {format_type(ta.antecedent)}"))

    return VerifyReport(strictness_ok, axiom1_forward_ok, axiom1_totality_ok,
                        tuple(failures))


def typing_isomorphic(t1, t2):
    """Whether a bijective ground renaming maps t1's assignment onto t2's."""
    if len(t1.types) != len(t2.types):
        raise InputError("typings cover different carriers")
    # each pair of (interned) subterms is matched once, so shared
    # subterms cost their DAG size, not their tree size
    fwd, bwd = {}, {}
    seen = set()
    stack = list(zip(t1.types, t2.types))
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        x, y = pair
        if isinstance(x, Arrow) != isinstance(y, Arrow):
            return False
        if isinstance(x, Arrow):
            stack += ((x.antecedent, y.antecedent), (x.consequent, y.consequent))
        elif (fwd.setdefault(x.name, y.name) != y.name
              or bwd.setdefault(y.name, x.name) != x.name):
            return False
    return True


def parse_typing(g, data):
    """Typing from JSON bytes or str: {"types": {"<element>": "<type>"}}."""
    try:
        doc = json.loads(decode(data))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("types"), dict):
        raise InputError("typing file needs a 'types' object")
    types = [None] * g.size
    for name, text in doc["types"].items():
        e = g.element(name)
        if not isinstance(text, str):
            raise InputError(f"type of {name!r} must be a string")
        types[e.index] = parse_type(text)
    for e, t in enumerate(types):
        if t is None:
            raise InputError(f"element {g.names[e]} has no type")
    return Typing(tuple(types))


def typing_doc(g, typing):
    """The typing-file document, elements in carrier order."""
    return {"types": {g.names[e]: format_type(t) for e, t in enumerate(typing.types)}}


def serialize_typing(g, typing):
    """Canonical JSON bytes for a typing."""
    return (json.dumps(typing_doc(g, typing), indent=2) + "\n").encode("utf-8")
