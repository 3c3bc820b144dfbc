"""Independent checker of the typed-applicative-algebra axioms.

Checks a (pargoid, typing) pair with concrete witnesses for every
violation: the type blocks partition the carrier, distinct types never
share a block, the inhabited type set is closed under arrow components,
and defined products respect arrow types. The totality direction —
matching types force a defined product — is checked separately and only
counts toward acceptance in strong mode. This module never calls the
decision pipeline, so it can serve as its oracle.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import congruence
from .errors import InputError
from .pargoid import decode
from .types import Arrow, Typing, format_type, parse_type, strict_closure_check

MODES = ("literal", "strong")


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of every axiom check plus the acceptance mode applied.

    Literal acceptance requires partition, injectivity, strictness and
    the forward product axiom; strong acceptance adds totality.
    """

    mode: str
    partition_ok: bool
    injectivity_ok: bool
    strictness_ok: bool
    axiom1_forward_ok: bool
    axiom1_totality_ok: bool
    failures: tuple

    @property
    def accepted_literal(self):
        return (self.partition_ok and self.injectivity_ok
                and self.strictness_ok and self.axiom1_forward_ok)

    @property
    def accepted_strong(self):
        return self.accepted_literal and self.axiom1_totality_ok

    @property
    def accepted(self):
        return self.accepted_strong if self.mode == "strong" else self.accepted_literal


def verify(g, typing, mode="literal"):
    """Check the axioms of g under the typing; returns a VerifyReport."""
    if mode not in MODES:
        raise InputError(f"unknown verification mode {mode!r}")
    n = g.size
    if len(typing.types) != n:
        raise InputError("typing does not match the carrier size")
    for e, t in enumerate(typing.types):
        if t is None:
            raise InputError(f"element {g.names[e]} has no type")

    failures = []

    # one type per element makes the induced blocks disjoint, nonempty and
    # covering, and distinct types get distinct blocks; both checks hold
    # structurally for assignment-based typings and are kept for reporting
    blocks = {}
    for e, t in enumerate(typing.types):
        blocks.setdefault(t, []).append(e)
    partition_ok = (all(blocks.values())
                    and sum(len(b) for b in blocks.values()) == n)
    if not partition_ok:
        failures.append(Violation("partition", "type blocks do not partition the carrier"))
    injectivity_ok = len({tuple(b) for b in blocks.values()}) == len(blocks)
    if not injectivity_ok:
        failures.append(Violation("injectivity", "distinct types share a block"))

    inhabited = set(blocks)
    strictness_ok = strict_closure_check(inhabited)
    if not strictness_ok:
        for t in sorted(inhabited, key=format_type):
            if isinstance(t, Arrow):
                for part in (t.antecedent, t.consequent):
                    if part not in inhabited:
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
    for a in range(n):
        ta = typing.types[a]
        if not isinstance(ta, Arrow):
            continue
        for b in range(n):
            if typing.types[b] == ta.antecedent and (a, b) not in g.table:
                axiom1_totality_ok = False
                failures.append(Violation(
                    "axiom1-totality",
                    f"{g.names[a]} {g.names[b]} diverges despite matching "
                    f"types {format_type(ta)} and {format_type(ta.antecedent)}"))

    return VerifyReport(mode, partition_ok, injectivity_ok, strictness_ok,
                        axiom1_forward_ok, axiom1_totality_ok, tuple(failures))


def lemma1_check(g, typing, clone, varpi):
    """Same-type elements must be congruence-equivalent.

    Returns (True, None) or (False, (a, b, separating op)) for the first
    same-type pair in different blocks.
    """
    n = g.size
    for a in range(n):
        for b in range(a + 1, n):
            if (typing.types[a] == typing.types[b]
                    and varpi.class_of[a] != varpi.class_of[b]):
                sep = congruence.separator(g, clone, a, b)
                return False, (g.element(a), g.element(b), sep)
    return True, None


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
    return Typing(tuple(types), {})


def serialize_typing(g, typing):
    """Canonical JSON bytes for a typing, elements in carrier order."""
    doc = {"types": {g.names[e]: format_type(t)
                     for e, t in enumerate(typing.types)}}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
