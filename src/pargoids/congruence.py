"""Convergence-profile congruence of a pargoid.

Two elements are equivalent exactly when every unary polynomial operation
converges on both or neither, so the partition groups elements by their
convergence profile across the clone. It is computed only from fully
closed clones: a truncated clone would merge elements a missing operation
could separate. lemma1_check holds a typing to it: elements of one type
must share a block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .pargoid import _ix


@dataclass(frozen=True)
class Partition:
    """Canonical partition: members sorted, blocks ordered by smallest member."""

    blocks: tuple
    class_of: tuple


def make_partition(blocks, n):
    """Validate disjoint cover of range(n) and put it in canonical form."""
    blocks = tuple(sorted(tuple(sorted(set(b))) for b in blocks))
    class_of = [-1] * n
    for k, blk in enumerate(blocks):
        if not blk:
            raise InputError("partition blocks must be nonempty")
        for e in blk:
            if not 0 <= e < n:
                raise InputError(f"element index {e} out of range")
            if class_of[e] != -1:
                raise InputError(f"partition blocks overlap on element {e}")
            class_of[e] = k
    if -1 in class_of:
        raise InputError("partition blocks do not cover the carrier")
    return Partition(blocks, tuple(class_of))


def leibniz(g, clone):
    """Partition of the carrier by convergence profile over the clone.

    Each element's profile is its column of the clone's domain matrix,
    packed into bytes; elements with equal bytes share a block.
    """
    if clone.budget_hit:
        raise InputError("the congruence needs a fully closed clone")
    blocks = {}
    for e, profile in enumerate(np.packbits(clone.domains(), axis=0).T):
        blocks.setdefault(profile.tobytes(), []).append(e)
    return make_partition(blocks.values(), g.size)


def is_congruence(g, part):
    """Whether products respect the partition.

    True when equivalent pairs applied to equivalent pairs land in the
    same block; otherwise (False, (a, b, c, d)) for the first quadruple
    with a ≡ b, c ≡ d, both ac and bd defined, but ac not equivalent
    to bd.
    """
    if len(part.class_of) != g.size:
        raise InputError("partition does not match the carrier")
    cls = part.class_of
    first = {}
    for (a, c), ac in sorted(g.table.items()):
        key = (cls[a], cls[c])
        if key not in first:
            first[key] = (a, c, cls[ac])
        else:
            a0, c0, res_cls = first[key]
            if cls[ac] != res_cls:
                quad = (a0, a, c0, c)
                return False, tuple(g.element(e) for e in quad)
    return True, None


def separator(g, clone, a, c):
    """First clone op converging on exactly one of a and c, if any.

    Present exactly when the two elements have different convergence
    profiles, i.e. lie in different blocks of the partition.
    """
    if clone.budget_hit:
        raise InputError("separator search needs a fully closed clone")
    cols = clone.graphs[:, [_ix(g, a), _ix(g, c)]] != clone.carrier_size
    differs = cols[:, 0] != cols[:, 1]
    return clone.op(int(differs.argmax())) if differs.any() else None


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
                return False, (g.element(a), g.element(b), separator(g, clone, a, b))
    return True, None
