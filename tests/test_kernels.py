"""The kernel module's entry points, and the diagonal, classification and
closure of relations against the naive oracles in tests/oracles.py.  The
other kernels are checked against the oracles through the structures,
mappings, approximations and claim tables that call them."""

import random

from roughmap import kernels

from oracles import naive_classify, naive_closure


def test_select_routes_by_size():
    # one module for every size; select() is the seam the per-layer
    # benchmark trace wraps
    for args in ((10,), (65,), (10, 65), (6, 4)):
        assert kernels.select(*args) is kernels
    assert kernels.BACKEND == "python"


def test_flag_constants_agree():
    flags = (kernels.REFLEXIVE, kernels.SYMMETRIC, kernels.TRANSITIVE, kernels.EQUIVALENCE)
    assert flags == (1, 2, 4, 7)


def test_elements_lists_a_mask_bit_by_bit():
    for mask in range(1 << 12):
        assert list(kernels.elements(mask)) == [i for i in range(12) if mask >> i & 1]


def test_diagonal_is_every_pair_of_an_element_with_itself():
    for m in range(201):
        want = 0
        for v in range(m):
            want |= 1 << v * (m + 1)
        assert kernels.diagonal(m) == want, m


def test_classify_and_closure_match_the_oracles_on_random_relations():
    # sparse and dense relations, with empty rows among full ones
    rng = random.Random(12)
    for _ in range(1000):
        m = rng.randrange(1, 13)
        pairs = {(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randrange(m * m + 1))}
        packed = sum(1 << v * m + w for v, w in pairs)
        refl, sym, trans = naive_classify(pairs, m)
        assert kernels.classify(packed, m) == refl * kernels.REFLEXIVE + sym * kernels.SYMMETRIC + trans * kernels.TRANSITIVE
        assert set(kernels.pairs(kernels.closure(packed, m), m)) == naive_closure(pairs)
