"""Deterministic pseudo-random pargoid generation for property testing.

The generator is pinned to splitmix64 so identical configs produce
byte-identical pargoids on every platform and Python version; nothing
here depends on the standard library's RNG. Streams are split by
purpose — one for the product table, one for type sampling — so extra
draws on one side never shift the other.
"""
from __future__ import annotations

from dataclasses import dataclass

from .defaults import GEN_MODES
from .errors import InputError
from .pargoid import Pargoid
from .types import Arrow, Ground, Typing

MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, additive constant 0x9E3779B97F4A7C15,
    finalizer multiplies 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & MASK64

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def float01(self):
        """Uniform in [0, 1) with 53 significant bits."""
        return (self.next64() >> 11) * 2.0 ** -53

    def below(self, bound):
        """Uniform integer in [0, bound), unbiased by rejection."""
        if bound <= 0:
            raise InputError(f"empty range for random draw: {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next64()
            if x < limit:
                return x % bound

    def split(self):
        """Independent child stream seeded from this one."""
        return SplitMix64(self.next64())


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters; identical configs give identical pargoids.

    density is the probability each product is defined (arbitrary and
    typed_literal modes); type_depth caps arrow nesting and ground_count
    fixes the number of ground types (typed modes).
    """

    size: int
    seed: int
    mode: str = "arbitrary"
    density: float = 0.5
    type_depth: int = 2
    ground_count: int = 1


def _check_common(cfg):
    if cfg.size < 1:
        raise InputError("carrier size must be at least 1")
    if not 0.0 <= cfg.density <= 1.0:
        raise InputError("density must lie in [0, 1]")
    if cfg.mode not in GEN_MODES:
        raise InputError(f"unknown generation mode {cfg.mode!r}")
    # only the typed modes read these, but every mode refuses them
    if cfg.ground_count < 1:
        raise InputError("typed modes need at least one ground type")
    if cfg.ground_count > cfg.size:
        raise InputError("more ground types than elements")
    if cfg.type_depth < 0:
        raise InputError("type depth must be at least 0")


def _names(n):
    return tuple(f"e{i}" for i in range(n))


def gen_arbitrary(cfg):
    """Each ordered pair defined independently with probability density,
    the value uniform over the carrier. Draws run row-major: one float
    per pair, one value draw when defined."""
    _check_common(cfg)
    if cfg.mode != "arbitrary":
        raise InputError("gen_arbitrary needs mode 'arbitrary'")
    rng = SplitMix64(cfg.seed).split()
    n = cfg.size
    table = {}
    for a in range(n):
        for b in range(n):
            if rng.float01() < cfg.density:
                table[(a, b)] = rng.below(n)
    return Pargoid(_names(n), table)


def _sample_type_set(cfg, rng):
    """A strict inhabitable type set in insertion order.

    Starts from the ground names and keeps attempting arrows whose sides
    are existing members, rejecting depth overflows and duplicates, so
    the set stays closed under components and never exceeds the carrier.
    """
    pool = [Ground(f"g{i}") for i in range(cfg.ground_count)]
    depth = dict.fromkeys(pool, 0)  # member -> arrow nesting depth
    extras = rng.below(cfg.size - cfg.ground_count + 1)
    for _ in range(2 * extras):
        if len(pool) == cfg.size:
            break
        left, right = pool[rng.below(len(pool))], pool[rng.below(len(pool))]
        t = Arrow(left, right)
        d = 1 + max(depth[left], depth[right])
        if t in depth or d > cfg.type_depth:
            continue
        pool.append(t)
        depth[t] = d
    return pool


def gen_typed(cfg):
    """Pargoid synthesized from a sampled type assignment, plus the typing.

    Every sampled type is inhabited. typed_strong defines the product of
    every pair whose types match (left an arrow, right its antecedent)
    with a uniform value of the consequent's block; typed_literal defines
    each such pair with probability density instead. Non-matching pairs
    never multiply.
    """
    _check_common(cfg)
    if cfg.mode not in ("typed_strong", "typed_literal"):
        raise InputError("gen_typed needs mode 'typed_strong' or 'typed_literal'")
    root = SplitMix64(cfg.seed)
    table_rng = root.split()
    type_rng = root.split()
    n = cfg.size

    pool = _sample_type_set(cfg, type_rng)
    k = len(pool)
    assignment = [pool[i] for i in range(k)] + \
                 [pool[type_rng.below(k)] for _ in range(n - k)]
    # Fisher-Yates keeps every type inhabited while mixing positions
    for i in range(n - 1, 0, -1):
        j = type_rng.below(i + 1)
        assignment[i], assignment[j] = assignment[j], assignment[i]

    block_of = {}
    for e, t in enumerate(assignment):
        block_of.setdefault(t, []).append(e)

    # each arrow-typed a meets only the block typed dom(T_a), in the
    # ascending order of a full row scan
    table = {}
    for a in range(n):
        ta = assignment[a]
        if not isinstance(ta, Arrow):
            continue
        members = block_of[ta.consequent]
        for b in block_of.get(ta.antecedent, ()):
            if cfg.mode == "typed_literal" and not (table_rng.float01() < cfg.density):
                continue
            table[(a, b)] = members[table_rng.below(len(members))]

    return Pargoid(_names(n), table), Typing(tuple(assignment))
