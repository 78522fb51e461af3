import operator
import random
from fractions import Fraction

import pytest

from roughmap import (
    GroupContext,
    BadImageError,
    DegreeRatio,
    EmptyReferenceError,
    MixedUniverseError,
    Subset,
    SurjMap,
    Universe,
    degree_table,
    fiber_condition,
    including_degree,
    make_map,
    partition_from_blocks,
    relmap,
)
from roughmap import claims, kernels

import oracles


def test_degree_ratio_is_unreduced_but_compares_reduced():
    a = DegreeRatio(1, 2)
    b = DegreeRatio(2, 4)
    assert a == b
    assert hash(a) == hash(b)
    assert (a.num, a.den) == (1, 2)
    assert (b.num, b.den) == (2, 4)
    assert DegreeRatio(1, 3) < a <= b
    assert DegreeRatio(4, 4).is_one
    assert DegreeRatio(0, 5).is_zero
    assert str(b) == "2/4"
    # an order against anything else is Python's TypeError, not an
    # AttributeError for the other side's missing .den
    for bad in (3, 0.5, None):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(a, bad)
            with pytest.raises(TypeError):
                compare(bad, a)
    # num and den are ints, bool excluded, with 0 <= num <= den and den > 0:
    # at the parent DegreeRatio(0.5, 1) was built and its hash raised a bare
    # TypeError from gcd, and DegreeRatio(True, 2).num was True
    for num, den in ((0.5, 1), (True, 2), (1, 2.0), (0, False), (1, True), ("1", 2), (-1, 2), (3, 2), (0, 0), (0, -1)):
        with pytest.raises(EmptyReferenceError):
            DegreeRatio(num, den)


def test_including_degree_matches_fraction_arithmetic():
    u = Universe(6)
    e = Subset.from_elements(u, [0, 1, 2, 3])
    f = Subset.from_elements(u, [2, 3, 4])
    d = including_degree(e, f)
    assert Fraction(d.num, d.den) == Fraction(2, 4)


def test_including_degree_rejects_empty_reference():
    u = Universe(3)
    with pytest.raises(EmptyReferenceError):
        including_degree(Subset.empty(u), Subset.full(u))


def test_including_degree_rejects_mixed_universes():
    e = Subset.full(Universe(2))
    f = Subset.full(Universe(2))
    with pytest.raises(MixedUniverseError):
        including_degree(e, f)


def test_map_construction_and_fibers():
    u = Universe(4)
    v = Universe(2, ["a", "b"])
    f = make_map(u, v, [0, 0, 1, 1])
    assert f.surjective
    assert not f.bijective
    assert f(2) == 1
    assert sorted(f.fiber(0).elements()) == [0, 1]
    assert sorted(f.fiber_of(3).elements()) == [2, 3]
    assert sorted(f.image_subset(Subset.from_elements(u, [0, 3])).elements()) == [0, 1]


def test_non_surjective_map_is_allowed_but_flagged():
    f = make_map(Universe(2), Universe(3), [0, 0])
    assert not f.surjective
    assert len(f.fiber(2)) == 0


def test_map_rejects_bad_tables():
    u, v = Universe(2), Universe(2)
    with pytest.raises(BadImageError):
        make_map(u, v, [0])
    with pytest.raises(BadImageError):
        make_map(u, v, [0, 5])


def test_map_rejects_images_that_are_not_ints():
    # at the parent, (0, 0.5, 1) failed inside fiber_masks with a TypeError
    u, v = Universe(3), Universe(2)
    for table in ((0, 0.5, 1), (0, True, 1), (0, "1", 1)):
        with pytest.raises(BadImageError):
            SurjMap(u, v, table)


def test_from_pairs_requires_totality_and_single_image():
    u, v = Universe(2), Universe(2)
    f = SurjMap.from_pairs(u, v, [(0, 1), (1, 0)])
    assert f.table == (1, 0)
    with pytest.raises(BadImageError):
        SurjMap.from_pairs(u, v, [(0, 1), (0, 0), (1, 0)])
    with pytest.raises(BadImageError):
        SurjMap.from_pairs(u, v, [(0, 1)])


def test_relmap_matches_set_oracle_exhaustively():
    # every map table and partition with |U| <= 4 and |V| <= max(|U|, 3):
    # maps with empty fibers as well as surjections
    from roughmap import Partition
    from roughmap.enumeration import iter_rgs, iter_tables

    for n in range(1, 5):
        u = Universe(n)
        parts = [Partition(u, rgs) for rgs in iter_rgs(n)]
        for m in range(1, max(n, 3) + 1):
            v = Universe(m)
            for table in iter_tables(n, m):
                f = SurjMap(u, v, table)
                for mask in range(1 << n):
                    x = Subset(u, mask)
                    want = {table[i] for i in x.elements()}
                    assert set(f.image_subset(x).elements()) == want, (table, mask)
                for p in parts:
                    got = set(relmap(f, p).pairs())
                    want = oracles.naive_relmap(
                        table, m, oracles.blocks_of_rgs(p.rgs)
                    )
                    assert got == want, (table, p.rgs)


def test_relmap_matches_oracle_on_random_maps_up_to_forty_values():
    # f(R) of maps with and without empty fibers onto m <= 40 values, and
    # partitions from singletons to one block, as mappings.relmap and the
    # engine's direct tables compute it: from each block's own elements
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randrange(1, 41)
        n = rng.randrange(1, 41)
        table = tuple(rng.randrange(m) for _ in range(n))
        ids = [rng.randrange(rng.randrange(1, n + 1)) for _ in range(n)]
        u, v = Universe(n), Universe(m)
        p = partition_from_blocks(u, [[x for x in range(n) if ids[x] == b] for b in set(ids)])
        want = oracles.naive_relmap(table, m, oracles.blocks_of_rgs(p.rgs))
        assert set(relmap(SurjMap(u, v, table), p).pairs()) == want, (table, p.rgs)
        sizes = claims._DirectTables(n)
        h = sizes.handle(p.rgs)
        ctx = GroupContext(sizes, claims._DirectTables(m), table, claims.REGISTRY["T31"], [h])
        assert set(kernels.pairs(ctx.relmap(h).packed, m)) == want, (table, p.rgs)


def test_degree_table_matches_fraction_oracle():
    u = Universe(6)
    v = Universe(2)
    f = make_map(u, v, [0, 0, 1, 1, 0, 0])
    p = partition_from_blocks(u, [[0], [1], [2], [3, 4, 5]])
    degs = degree_table(f, p)
    want = oracles.naive_degrees(f.table, oracles.blocks_of_rgs(p.rgs))
    for x, d in enumerate(degs):
        assert Fraction(d.num, d.den) == want[x]
    # denominators are fiber sizes, left unreduced
    assert (degs[0].num, degs[0].den) == (1, 4)
    assert (degs[4].num, degs[4].den) == (2, 4)


def test_fiber_condition_detects_containment():
    u = Universe(4)
    v = Universe(2)
    f = make_map(u, v, [0, 0, 1, 1])
    inside = partition_from_blocks(u, [[0, 1], [2, 3]])
    split = partition_from_blocks(u, [[0], [1], [2, 3]])
    assert fiber_condition(f, inside)
    assert not fiber_condition(f, split)


def test_relmap_rejects_foreign_partition():
    u, v = Universe(2), Universe(2)
    f = make_map(u, v, [0, 1])
    foreign = partition_from_blocks(Universe(2), [[0, 1]])
    with pytest.raises(MixedUniverseError):
        relmap(f, foreign)
