import pytest

from roughmap import (
    MixedUniverseError,
    Subset,
    Universe,
    approximations,
    boundary,
    is_definable,
    lower_approx,
    partition_from_blocks,
    upper_approx,
)
from roughmap.enumeration import iter_rgs
from roughmap import Partition

import oracles


def test_text_example_values():
    u = Universe(4)
    p = partition_from_blocks(u, [[0], [1, 2], [3]])
    x = Subset.from_elements(u, [0])
    assert sorted(lower_approx(p, x).elements()) == [0]
    assert sorted(upper_approx(p, x).elements()) == [0]
    assert is_definable(p, x)

    y = Subset.from_elements(u, [0, 1])
    lo, hi = approximations(p, y)
    assert sorted(lo.elements()) == [0]
    assert sorted(hi.elements()) == [0, 1, 2]
    assert sorted(boundary(p, y).elements()) == [1, 2]
    assert not is_definable(p, y)


def test_exhaustive_against_set_oracle():
    # every partition and subset for |U| <= 5
    for n in range(1, 6):
        u = Universe(n)
        for rgs in iter_rgs(n):
            p = Partition(u, rgs)
            blocks = oracles.blocks_of_rgs(rgs)
            for mask in range(1 << n):
                x = Subset(u, mask)
                want_lo, want_hi = oracles.naive_lower_upper(
                    blocks, set(x.elements())
                )
                lo, hi = approximations(p, x)
                assert set(lo.elements()) == want_lo
                assert set(hi.elements()) == want_hi


def test_edge_subsets():
    u = Universe(3)
    p = partition_from_blocks(u, [[0, 1], [2]])
    assert len(lower_approx(p, Subset.empty(u))) == 0
    assert len(upper_approx(p, Subset.empty(u))) == 0
    assert is_definable(p, Subset.empty(u))
    assert is_definable(p, Subset.full(u))


def test_mixed_universe_rejected():
    p = partition_from_blocks(Universe(2), [[0, 1]])
    with pytest.raises(MixedUniverseError):
        lower_approx(p, Subset.full(Universe(2)))
