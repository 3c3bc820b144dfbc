"""The partition oracle against the benchmark's checker and against decide.

oracles.partition_typing decides both typing notions by trying every set
partition of the carrier, so it shares no algorithm with unification or
with the clone. bench/checker.py is imported read-only; it rests on the
theorem that a strong typing exists exactly when the most general unifier
exists and is total, which agreement on the strong notion tests.
"""
import itertools
import sys
from pathlib import Path

from pargoids import generators
from pargoids.errors import ResourceExhausted
from pargoids.pargoid import Pargoid
from pargoids.typability import Typable, decide

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import checker  # noqa: E402

BUDGET = 1024


def small_tables():
    """Every table with n <= 2 (83 tables), and every table with n = 3 and
    at most 4 defined products (12,826 tables)."""
    for n in (1, 2, 3):
        cells = list(itertools.product(range(n), repeat=2))
        for k in range(min(len(cells), 4) + 1):
            for pairs in itertools.combinations(cells, k):
                for values in itertools.product(range(n), repeat=k):
                    yield n, dict(zip(pairs, values))


def sample_tables():
    """100 gen_arbitrary tables: n = 4 + k mod 5, four densities, seed 72000 + k."""
    for k in range(100):
        cfg = generators.GenConfig(size=4 + k % 5, seed=72000 + k,
                                   density=(0.05, 0.1, 0.15, 0.3)[k % 4])
        g = generators.gen_arbitrary(cfg)
        yield g.size, g.table


def test_partition_oracle_agrees_with_checker_and_decide():
    seen, exhausted = 0, 0
    for n, table in itertools.chain(small_tables(), sample_tables()):
        seen += 1
        literal = oracles.partition_typing(n, table, False)
        # a strong typing is a literal one, so it needs a literal partition
        strong = literal and oracles.partition_typing(n, table, True)
        assert (literal is not None) == (checker.principal_typing(n, table) is not None), table
        assert bool(strong) == checker.strong_typing_exists(n, table), table
        try:
            decision = decide(Pargoid("abcdefgh"[:n], table), BUDGET)
        except ResourceExhausted:
            exhausted += 1
            continue
        # decide's one-sided guarantees
        if isinstance(decision, Typable):
            assert literal is not None, table
        else:
            assert not strong, table
    assert seen == 83 + 12826 + 100
    assert exhausted == 0
