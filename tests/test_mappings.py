from fractions import Fraction

import pytest

from roughmap import (
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
