from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from roughmap import (
    Partition,
    Subset,
    Universe,
    approximations,
    boundary,
    degree_table,
    fiber_condition,
    including_degree,
    is_definable,
    relmap,
)

import strategies as own
from strategies import rgs_tuples, setups, subsets


@given(setups(surjective=False))
def test_relmap_is_always_symmetric(fp):
    f, p = fp
    assert relmap(f, p).classify().symmetric


@given(setups(surjective=False))
def test_relmap_reflexive_exactly_when_surjective(fp):
    f, p = fp
    assert relmap(f, p).classify().reflexive == f.surjective


@given(setups(bijective=True))
def test_bijective_relmap_is_the_direct_image(fp):
    f, p = fp
    want = {(f(x), f(y)) for x, y in p.to_relation().pairs()}
    assert set(relmap(f, p).pairs()) == want


@given(setups())
def test_fiber_condition_is_the_degree_one_collapse(fp):
    f, p = fp
    degs = degree_table(f, p)
    assert fiber_condition(f, p) == all(d.is_one for d in degs)


@given(setups())
def test_fiber_condition_makes_relmap_the_direct_image(fp):
    f, p = fp
    if not fiber_condition(f, p):
        return
    want = {(f(x), f(y)) for x, y in p.to_relation().pairs()}
    assert set(relmap(f, p).pairs()) == want


@given(setups())
def test_degrees_are_valid_fractions(fp):
    f, p = fp
    for x, d in enumerate(degree_table(f, p)):
        assert 0 < Fraction(d.num, d.den) <= 1
        assert d.den == len(f.fiber_of(x))


@st.composite
def partition_and_subset(draw):
    u = Universe(draw(st.integers(1, own.MAX_N)))
    p = draw(own.partitions(u))
    x = draw(subsets(u))
    return p, x


@given(partition_and_subset())
def test_approximation_sandwich(px):
    p, x = px
    lo, hi = approximations(p, x)
    assert lo <= x <= hi


@given(partition_and_subset())
def test_approximation_duality(px):
    p, x = px
    lo, hi = approximations(p, x)
    _, hi_c = approximations(p, x.complement())
    assert lo == hi_c.complement()


@given(partition_and_subset())
def test_boundary_and_definability(px):
    p, x = px
    lo, hi = approximations(p, x)
    assert boundary(p, x) == hi - lo
    assert is_definable(p, x) == (len(boundary(p, x)) == 0 and lo == x)


@given(partition_and_subset())
def test_approximations_are_unions_of_blocks(px):
    p, x = px
    lo, hi = approximations(p, x)
    for s in (lo, hi):
        for b in p.blocks():
            inter = b & s
            assert len(inter) in (0, len(b))


@given(rgs_tuples())
def test_partition_relation_round_trip(rgs):
    u = Universe(len(rgs))
    p = Partition(u, rgs)
    assert p.to_relation().to_partition().rgs == rgs


@given(rgs_tuples(), st.data())
def test_meet_join_are_lattice_bounds(rgs, data):
    u = Universe(len(rgs))
    p = Partition(u, rgs)
    q = data.draw(own.partitions(u))
    m = p.meet(q)
    j = p.join(q)
    assert m.refines(p) and m.refines(q)
    assert p.refines(j) and q.refines(j)
    # meet is the pairwise intersection of the relations
    assert set(m.to_relation().pairs()) == set(p.to_relation().pairs()) & set(
        q.to_relation().pairs()
    )
    # join is the transitive closure of the union
    union = p.to_relation() | q.to_relation()
    assert union.transitive_closure().to_partition().rgs == j.rgs


@given(rgs_tuples(), st.data())
def test_refines_matches_pair_inclusion(rgs, data):
    u = Universe(len(rgs))
    p = Partition(u, rgs)
    q = data.draw(own.partitions(u))
    assert p.refines(q) == (p.to_relation() <= q.to_relation())


@given(st.data())
def test_including_degree_endpoints(data):
    u = Universe(data.draw(st.integers(1, own.MAX_N)))
    e = data.draw(subsets(u))
    f = data.draw(subsets(u))
    if len(e) == 0:
        return
    d = including_degree(e, f)
    assert d.is_one == (e <= f)
    assert d.is_zero == (len(e & f) == 0)


@given(setups(surjective=False), st.data())
def test_image_subset_is_monotone_and_contracting(fp, data):
    f, _ = fp
    x = data.draw(subsets(f.domain))
    y = data.draw(subsets(f.domain))
    fx = f.image_subset(x)
    assert len(fx) <= len(x)
    if x <= y:
        assert fx <= f.image_subset(y)


@given(setups(surjective=False))
def test_transitive_closure_is_idempotent(fp):
    f, p = fp
    r = relmap(f, p)
    closed = r.transitive_closure()
    assert closed.classify().transitive
    assert closed.transitive_closure() == closed
    assert r <= closed
