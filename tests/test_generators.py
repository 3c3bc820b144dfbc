import pytest

from pargoids import typability
from pargoids.errors import InputError
from pargoids.generators import (GenConfig, SplitMix64, gen_arbitrary,
                                 gen_typed)
from pargoids.pargoid import serialize
from pargoids.types import Ground, format_type
from pargoids.verifier import verify

import oracles


def test_splitmix_reference_values():
    # published test vectors of the standard splitmix64 stream
    rng = SplitMix64(0)
    assert rng.next64() == 0xE220A8397B1DCDAF
    assert rng.next64() == 0x6E789E6AA1B965F4
    assert rng.next64() == 0x06C45D188009454F
    rng = SplitMix64(1234567)
    assert rng.next64() == 0x599ED017FB08FC85
    assert rng.next64() == 0x2C73F08458540FA5


def test_splitmix_float_and_below():
    rng = SplitMix64(123)
    for _ in range(1000):
        x = rng.float01()
        assert 0.0 <= x < 1.0
    for bound in (1, 2, 7, 1000):
        for _ in range(200):
            assert 0 <= rng.below(bound) < bound
    with pytest.raises(InputError):
        rng.below(0)


def test_splitmix_split_streams_differ():
    root = SplitMix64(5)
    a = root.split()
    b = root.split()
    assert [a.next64() for _ in range(4)] != [b.next64() for _ in range(4)]


def test_gen_arbitrary_forced_shapes():
    g = gen_arbitrary(GenConfig(size=1, seed=0, density=1.0))
    assert g.table == {(0, 0): 0}
    assert isinstance(typability.decide(g), typability.Untypable)
    g = gen_arbitrary(GenConfig(size=4, seed=9, density=0.0))
    assert g.table == {}
    assert isinstance(typability.decide(g), typability.Typable)


def test_gen_arbitrary_frozen_tables():
    g = gen_arbitrary(GenConfig(size=3, seed=1, density=1.0))
    assert dict(sorted(g.table.items())) == {
        (0, 0): 0, (0, 1): 2, (0, 2): 2,
        (1, 0): 1, (1, 1): 1, (1, 2): 1,
        (2, 0): 2, (2, 1): 0, (2, 2): 1,
    }
    g = gen_arbitrary(GenConfig(size=5, seed=42, density=0.3))
    assert serialize(g) == (
        b"elements: e0 e1 e2 e3 e4\n"
        b"e0 e3 = e1\n"
        b"e0 e4 = e2\n"
        b"e1 e1 = e1\n"
        b"e1 e3 = e0\n"
        b"e1 e4 = e1\n"
        b"e2 e4 = e1\n"
        b"e3 e2 = e1\n"
    )


def test_gen_arbitrary_is_deterministic():
    for seed in (0, 7, 99):
        cfg = GenConfig(size=6, seed=seed, density=0.5)
        assert serialize(gen_arbitrary(cfg)) == serialize(gen_arbitrary(cfg))


def test_gen_config_validation():
    with pytest.raises(InputError):
        gen_arbitrary(GenConfig(size=0, seed=0))
    with pytest.raises(InputError):
        gen_arbitrary(GenConfig(size=2, seed=0, density=1.5))
    with pytest.raises(InputError):
        gen_arbitrary(GenConfig(size=2, seed=0, mode="chaotic"))
    with pytest.raises(InputError):
        gen_arbitrary(GenConfig(size=2, seed=0, mode="typed_strong"))
    with pytest.raises(InputError):
        gen_typed(GenConfig(size=2, seed=0, mode="arbitrary"))
    with pytest.raises(InputError):
        gen_typed(GenConfig(size=2, seed=0, mode="typed_strong", ground_count=3))
    with pytest.raises(InputError):
        gen_typed(GenConfig(size=2, seed=0, mode="typed_strong", ground_count=0))


def test_gen_typed_depth_zero_is_void():
    g, typing = gen_typed(GenConfig(size=3, seed=7, mode="typed_strong",
                                    type_depth=0, ground_count=1))
    assert g.table == {}
    assert typing.types == (Ground("g0"),) * 3


def test_gen_typed_frozen_instance():
    g, typing = gen_typed(GenConfig(size=5, seed=3, mode="typed_strong",
                                    type_depth=2, ground_count=2))
    assert dict(sorted(g.table.items())) == {(0, 3): 2, (3, 1): 2, (4, 3): 2}
    assert {g.names[e]: format_type(t) for e, t in enumerate(typing.types)} == {
        "e0": "(g1 -> g0) -> g0",
        "e1": "g1",
        "e2": "g0",
        "e3": "g1 -> g0",
        "e4": "(g1 -> g0) -> g0",
    }


def test_gen_typed_strong_satisfies_strong_mode():
    for k in range(30):
        cfg = GenConfig(size=2 + k % 7, seed=8100 + k, mode="typed_strong",
                        type_depth=1 + k % 3, ground_count=1 + k % 2)
        g, typing = gen_typed(cfg)
        report = verify(g, typing)
        assert report.accepted_strong, (cfg, report.failures)
        assert isinstance(typability.decide(g), typability.Typable)


def test_gen_typed_literal_satisfies_literal_mode():
    for k in range(30):
        cfg = GenConfig(size=2 + k % 7, seed=8200 + k, mode="typed_literal",
                        density=(0.0, 0.4, 0.8)[k % 3], type_depth=2,
                        ground_count=1)
        g, typing = gen_typed(cfg)
        assert verify(g, typing).accepted
    g, _ = gen_typed(GenConfig(size=5, seed=3, mode="typed_literal",
                               density=0.0, type_depth=2, ground_count=2))
    assert g.table == {}


def test_gen_typed_every_type_inhabited():
    for k in range(20):
        cfg = GenConfig(size=3 + k % 6, seed=8300 + k, mode="typed_strong",
                        type_depth=2, ground_count=1 + k % 3)
        g, typing = gen_typed(cfg)
        assert len(typing.types) == g.size
        grounds = {Ground(f"g{i}") for i in range(cfg.ground_count)}
        assert grounds <= set(typing.types)


def test_gen_typed_matches_the_scan_reference():
    # gen_typed walks each antecedent block and reads type depths from a
    # dict; the reference scans every pair and recurses for each depth,
    # so equal bytes mean the same draws in the same order
    for n in range(1, 41):
        for depth in range(5):
            for k, (mode, density) in enumerate((("typed_strong", 0.5), ("typed_literal", 0.05),
                                                 ("typed_literal", 0.5), ("typed_literal", 0.99),
                                                 ("typed_literal", 1.0))):
                cfg = GenConfig(size=n, seed=7 * n + 100 * depth + k, mode=mode, density=density,
                                type_depth=depth, ground_count=1 + (n + k) % min(n, 3))
                g, typing = gen_typed(cfg)
                ref, ref_typing = oracles.gen_typed_reference(cfg)
                assert serialize(g) == serialize(ref)
                assert typing.types == ref_typing.types
