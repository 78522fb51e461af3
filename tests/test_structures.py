import pytest

from roughmap import (
    BadElementError,
    BadLabelsError,
    BinRelation,
    EmptyUniverseError,
    MixedUniverseError,
    NotAPartitionError,
    NotEquivalenceError,
    Partition,
    Subset,
    Universe,
    make_universe,
    partition_from_blocks,
)

import oracles


def test_universe_basics():
    u = make_universe(3, ["x", "y", "z"])
    assert u.size == 3
    assert u.full_mask == 0b111
    assert u.label(2) == "z"
    with pytest.raises(BadElementError):
        u.check_element(3)


def test_universe_rejects_bad_input():
    with pytest.raises(EmptyUniverseError):
        Universe(0)
    with pytest.raises(BadLabelsError):
        Universe(2, ["only"])
    with pytest.raises(BadLabelsError):
        Universe(2, ["a", "a"])
    # a size or label of the wrong type fails here, not later at full_mask
    # or repr, and True is not a size
    for size in (2.0, True, "2", None):
        with pytest.raises(EmptyUniverseError):
            Universe(size)
    with pytest.raises(BadLabelsError):
        Universe(2, [1, 2])


def test_universes_compare_by_identity():
    u1 = Universe(3)
    u2 = Universe(3)
    s1 = Subset.from_elements(u1, [0])
    s2 = Subset.from_elements(u2, [0])
    with pytest.raises(MixedUniverseError):
        s1 & s2


def test_subset_algebra():
    u = Universe(4)
    a = Subset.from_elements(u, [0, 1])
    b = Subset.from_elements(u, [1, 2])
    assert list((a & b).elements()) == [1]
    assert list((a | b).elements()) == [0, 1, 2]
    assert list((a - b).elements()) == [0]
    assert list(a.complement().elements()) == [2, 3]
    assert a <= (a | b)
    assert not (a | b) <= a
    assert len(Subset.full(u)) == 4
    assert len(Subset.empty(u)) == 0
    assert 1 in a and 2 not in a


def test_subset_rejects_foreign_bits():
    u = Universe(2)
    with pytest.raises(BadElementError):
        Subset(u, 0b100)
    with pytest.raises(BadElementError):
        Subset.from_elements(u, [5])
    # a mask is an int, and bool is not one
    for bad in (True, 1.0, "1", None):
        with pytest.raises(BadElementError):
            Subset(u, bad)
    # membership of anything but an int index is False, as it is out of
    # range: at the parent 1.0 and "a" raised a bare TypeError and True was
    # read as element 1
    s = Subset(Universe(3), 0b010)
    assert 1 in s
    for bad in (1.0, True, "a", None, 2):
        assert bad not in s


def test_subset_rejects_elements_that_are_not_ints():
    # at the parent, 1 << 1.0 raised a bare TypeError; True passed as 1
    u = Universe(3)
    for bad in (1.0, True, "1"):
        with pytest.raises(BadElementError):
            Subset.from_elements(u, [bad])


def test_relation_rejects_foreign_bits():
    u = Universe(2)
    assert list(BinRelation(u, 0b1111).pairs()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for bad in (0b10000, -1, (0b01, 0b10), True, 1.0):
        with pytest.raises(BadElementError):
            BinRelation(u, bad)
    # so is membership of a pair that is not two int indices
    ident = BinRelation.identity(Universe(3))
    assert (0, 0) in ident
    for bad in ((0.0, 0), (0, 0.0), (True, True), (True, 1), ("a", 0), (None, 0)):
        assert bad not in ident


def test_relation_pairs_round_trip():
    u = Universe(3)
    pairs = {(0, 1), (1, 2), (2, 2)}
    r = BinRelation.from_pairs(u, pairs)
    assert set(r.pairs()) == pairs
    assert r.pair_count == 3
    assert (0, 1) in r and (1, 0) not in r
    # pairs outside the universe are never members, as for Subset
    ident = BinRelation.identity(u)
    for pair in [(-1, 2), (0, -1), (3, 0), (0, 3)]:
        assert pair not in ident


def test_relation_identity_is_every_pair_of_an_element_with_itself():
    for m in range(1, 51):
        u = Universe(m)
        assert BinRelation.identity(u) == BinRelation.from_pairs(u, {(v, v) for v in range(m)})


def test_relation_classify_against_oracle():
    # a few hand-picked shapes on 4 elements plus the identity, and every
    # relation on 1 to 3 elements
    cases = [
        (4, set()),
        (4, {(0, 0), (1, 1), (2, 2), (3, 3)}),
        (4, {(0, 1), (1, 0)}),
        (4, {(0, 1), (1, 2), (0, 2)}),
        (4, {(0, 1), (1, 2)}),
        (4, {(i, j) for i in range(4) for j in range(4)}),
    ]
    for m in range(1, 4):
        square = [(i, j) for i in range(m) for j in range(m)]
        for packed in range(1 << m * m):
            cases.append((m, {pair for k, pair in enumerate(square) if packed >> k & 1}))
    for m, pairs in cases:
        c = BinRelation.from_pairs(Universe(m), pairs).classify()
        refl, sym, trans = oracles.naive_classify(pairs, m)
        assert (c.reflexive, c.symmetric, c.transitive) == (refl, sym, trans)
        assert c.equivalence == (refl and sym and trans)


def test_transitive_closure_against_oracle():
    u = Universe(5)
    pairs = {(0, 1), (1, 2), (3, 4), (4, 3)}
    closed = BinRelation.from_pairs(u, pairs).transitive_closure()
    assert set(closed.pairs()) == oracles.naive_closure(pairs)


def test_relation_set_ops():
    u = Universe(3)
    r1 = BinRelation.from_pairs(u, {(0, 1), (1, 1)})
    r2 = BinRelation.from_pairs(u, {(1, 1), (2, 0)})
    assert set((r1 | r2).pairs()) == {(0, 1), (1, 1), (2, 0)}
    assert set((r1 & r2).pairs()) == {(1, 1)}
    assert set((r1 - r2).pairs()) == {(0, 1)}
    assert r1 <= (r1 | r2)


def test_partition_from_blocks_and_back():
    u = Universe(5)
    p = partition_from_blocks(u, [[3, 4], [0], [1, 2]])
    # block ids follow each block's least element
    assert p.rgs == (0, 1, 1, 2, 2)
    assert [sorted(b.elements()) for b in p.blocks()] == [[0], [1, 2], [3, 4]]
    assert sorted(p.block_of(4).elements()) == [3, 4]


def test_partition_rejects_bad_blocks():
    u = Universe(3)
    with pytest.raises(NotAPartitionError):
        partition_from_blocks(u, [[0, 1], [1, 2]])
    with pytest.raises(NotAPartitionError):
        partition_from_blocks(u, [[0], [2]])
    with pytest.raises(NotAPartitionError):
        partition_from_blocks(u, [[0, 1, 2], []])


def test_partition_rejects_non_canonical_rgs():
    u = Universe(3)
    with pytest.raises(NotAPartitionError):
        Partition(u, (0, 2, 1))
    with pytest.raises(NotAPartitionError):
        Partition(u, (1, 0, 0))
    with pytest.raises(NotAPartitionError):
        Partition(u, (0, 0))


def test_partition_rejects_block_ids_that_are_not_ints():
    # at the parent, (0, 1.0, 0) was accepted and blocks() and relmap then
    # failed inside a kernel
    u = Universe(3)
    for rgs in ((0, 1.0, 0), (0, True, 0), (0, "1", 0)):
        with pytest.raises(NotAPartitionError):
            Partition(u, rgs)


def test_partition_relation_round_trip():
    u = Universe(4)
    p = partition_from_blocks(u, [[0, 2], [1], [3]])
    r = p.to_relation()
    assert r.classify().equivalence
    assert r.to_partition().rgs == p.rgs


def test_relation_to_partition_reports_first_failed_axiom():
    u = Universe(3)
    r = BinRelation.from_pairs(u, {(0, 1)})
    with pytest.raises(NotEquivalenceError) as e:
        r.to_partition()
    assert e.value.condition == "reflexivity"

    refl = {(i, i) for i in range(3)}
    with pytest.raises(NotEquivalenceError) as e:
        BinRelation.from_pairs(u, refl | {(0, 1)}).to_partition()
    assert e.value.condition == "symmetry"

    with pytest.raises(NotEquivalenceError) as e:
        BinRelation.from_pairs(u, refl | {(0, 1), (1, 0), (1, 2), (2, 1)}).to_partition()
    assert e.value.condition == "transitivity"


def test_meet_join_refines_against_oracle():
    u = Universe(5)
    p = partition_from_blocks(u, [[0, 1], [2, 3], [4]])
    q = partition_from_blocks(u, [[0], [1, 2], [3, 4]])
    m = p.meet(q)
    j = p.join(q)
    bp = oracles.blocks_of_rgs(p.rgs)
    bq = oracles.blocks_of_rgs(q.rgs)
    assert oracles.blocks_of_rgs(m.rgs) == oracles.naive_meet(bp, bq)
    assert oracles.blocks_of_rgs(j.rgs) == oracles.naive_join(bp, bq)
    assert m.refines(p) and m.refines(q)
    assert p.refines(j) and q.refines(j)
    assert not p.refines(q)
    assert p.refines(p)


def test_identity_and_single_block():
    u = Universe(4)
    assert Partition.identity(u).rgs == (0, 1, 2, 3)
    assert Partition.single_block(u).rgs == (0, 0, 0, 0)
    assert Partition.identity(u).refines(Partition.single_block(u))


def test_raw_union_need_not_be_equivalence():
    u = Universe(4)
    p = partition_from_blocks(u, [[0, 1], [2], [3]])
    q = partition_from_blocks(u, [[0], [1, 2], [3]])
    raw = p.raw_union(q)
    assert not raw.classify().transitive
    with pytest.raises(NotEquivalenceError):
        raw.to_partition()
