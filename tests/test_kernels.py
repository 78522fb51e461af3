"""The kernel module's entry points, and the rows, classification and
closure of relations, and the not-equivalence witness and error read from
the one scan of the axioms, against the naive oracles in
tests/oracles.py.  The other kernels are checked against the oracles
through the structures, mappings, approximations and claim tables that
call them."""

import random
import time

import pytest

from roughmap import BinRelation, NotEquivalenceError, Universe, kernels
from roughmap.witnesses import not_equivalence

from oracles import naive_classify, naive_closure


def test_select_routes_by_size():
    # one module for every size; no engine code calls select(): it stays for
    # perfbench's setup code and tracer, and goes with the tracer change
    # that patches kernel names instead
    for args in ((10,), (65,), (10, 65), (6, 4)):
        assert kernels.select(*args) is kernels
    assert kernels.BACKEND == "python"


def test_flag_constants_agree():
    flags = (kernels.REFLEXIVE, kernels.SYMMETRIC, kernels.TRANSITIVE, kernels.EQUIVALENCE)
    assert flags == (1, 2, 4, 7)


def test_elements_lists_a_mask_bit_by_bit():
    for mask in range(1 << 12):
        assert list(kernels.elements(mask)) == [i for i in range(12) if mask >> i & 1]


def _packed(pairs, m):
    return sum(1 << v * m + w for v, w in pairs)


def test_rows_match_a_split_row_by_row():
    # bit lengths that are not a multiple of m, and empty rows at the top,
    # and elements and pairs list the set bits in the order a bit scan
    # finds them
    rng = random.Random(3)
    for _ in range(2000):
        m = rng.randrange(1, 20)
        top = rng.randrange(1, m + 1)  # rows top..m-1 stay empty
        packed = _packed({(rng.randrange(top), rng.randrange(m)) for _ in range(rng.randrange(2 * m))}, m)
        want = {v: packed >> v * m & (1 << m) - 1 for v in range(m)}
        got = kernels.rows(packed, m)
        assert got == {v: row for v, row in want.items() if row}
        assert list(got) == sorted(got)
        bits = [b for b in range(packed.bit_length()) if packed >> b & 1]
        assert list(kernels.elements(packed)) == bits
        assert list(kernels.pairs(packed, m)) == [divmod(b, m) for b in bits]


def _flags(refl, sym, trans):
    return refl * kernels.REFLEXIVE + sym * kernels.SYMMETRIC + trans * kernels.TRANSITIVE


def test_classify_and_closure_match_the_oracles_on_random_relations():
    # sparse and dense relations, with empty rows among full ones
    rng = random.Random(12)
    for _ in range(1000):
        m = rng.randrange(1, 13)
        pairs = {(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randrange(m * m + 1))}
        packed = _packed(pairs, m)
        assert kernels.classify(packed, m) == _flags(*naive_classify(pairs, m))
        assert set(kernels.pairs(kernels.closure(packed, m), m)) == naive_closure(pairs)


def test_classify_matches_the_oracle_on_sparse_relations_on_a_large_v():
    # at most 20 pairs on m = 50 or 300, some closed under symmetry or
    # transitivity so that both flags are met set and unset
    rng = random.Random(5)
    for _ in range(200):
        m = rng.choice((50, 300))
        pairs = {(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randrange(1, 11))}
        if rng.random() < 0.5:
            pairs |= {(w, v) for v, w in pairs}
        if rng.random() < 0.5 and len(naive_closure(pairs)) <= 20:
            pairs = naive_closure(pairs)
        assert kernels.classify(_packed(pairs, m), m) == _flags(*naive_classify(pairs, m))


def _naive_broken_axiom(pairs, m):
    for v in range(m):
        if (v, v) not in pairs:
            return "reflexivity", [v]
    ordered = sorted(pairs)
    for a, b in ordered:
        if (b, a) not in pairs:
            return "symmetry", [a, b]
    for a, b in ordered:
        missing = [c for c in range(m) if (b, c) in pairs and (a, c) not in pairs]
        if missing:
            return "transitivity", [a, b, missing[0]]


def _check_one_scan(pairs, m):
    # classify's flags, the witness and to_partition's error all name what
    # the naive scans find
    packed = _packed(pairs, m)
    assert kernels.classify(packed, m) == _flags(*naive_classify(pairs, m))
    relation = BinRelation(Universe(m), packed)
    if all(naive_classify(pairs, m)):
        assert relation.to_partition().to_relation() == relation
        return None
    witness = not_equivalence(packed, m)
    condition, items = _naive_broken_axiom(pairs, m)
    assert (witness["condition"], witness["items"]) == (condition, items)
    assert witness["relation"] == [list(pair) for pair in sorted(pairs)]
    with pytest.raises(NotEquivalenceError) as e:
        relation.to_partition()
    assert e.value.condition == condition
    return condition


def test_not_equivalence_names_what_a_naive_scan_finds():
    # every relation on at most 3 elements (2 + 16 + 512), random relations,
    # and partitions' relations with a pair, or a pair and its reverse,
    # flipped, so each of the three axioms is the first broken one
    seen = set()
    for m in range(1, 4):
        square = [(v, w) for v in range(m) for w in range(m)]
        for packed in range(1 << m * m):
            seen.add(_check_one_scan({pair for i, pair in enumerate(square) if packed >> i & 1}, m))
    assert seen == {None, "reflexivity", "symmetry", "transitivity"}
    rng = random.Random(9)
    seen = set()
    for _ in range(3000):
        m = rng.randrange(1, 13)
        if rng.random() < 0.3:
            pairs = {(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randrange(m * m + 1))}
        else:
            table = [rng.randrange(m) for _ in range(m)]
            pairs = {(v, w) for v in range(m) for w in range(m) if table[v] == table[w]}
            a, b = rng.randrange(m), rng.randrange(m)
            pairs ^= {(a, b), (b, a)} if rng.random() < 0.5 else {(a, b)}
        seen.add(_check_one_scan(pairs, m))
    assert seen == {None, "reflexivity", "symmetry", "transitivity"}


def _best_classify_s(packed, m):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        flags = kernels.classify(packed, m)
        times.append(time.perf_counter() - start)
    return flags, min(times)


def test_classify_of_a_large_sparse_relation_is_fast():
    # the cost follows the bit length, not m**3: the diagonal of 2,000
    # elements, and 3 pairs on 4,000 whose top row holds one
    m = 2000
    diagonal = int("1" + ("0" * m + "1") * (m - 1), 2)
    assert diagonal == _packed({(v, v) for v in range(m)}, m)
    flags, seconds = _best_classify_s(diagonal, m)
    assert flags == kernels.EQUIVALENCE
    assert seconds < 0.2
    m = 4000
    flags, seconds = _best_classify_s(_packed({(0, m - 1), (m - 1, 0), (m // 2, m // 2)}, m), m)
    assert flags == kernels.SYMMETRIC
    assert seconds < 0.2
