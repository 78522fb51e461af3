"""The evaluators' lookup tables against the slow oracles, and cached
evaluation against evaluation from scratch.

Per-size tables (approximations, partition pairs) are compared in both
forms: stored, as used up to claims._TABLE_MAX_N elements, and computed on
every call, as used above it.
"""

from collections import Counter
from itertools import product

import pytest

from roughmap import REGISTRY, Outcome, evaluate, verify
from roughmap import claims
from roughmap.claims import GroupContext
from roughmap.enumeration import iter_rgs
from roughmap.search import RawInstance, Tally, _group_instances, _run_group

from oracles import (
    blocks_of_rgs,
    naive_join,
    naive_lower_upper,
    naive_meet,
    naive_refines,
    naive_union,
)

FORMS = {"stored": claims._size_tables, "direct": claims._DirectTables}


def _mask(elements):
    return sum(1 << e for e in elements)


def _elements(mask, n):
    return {i for i in range(n) if (mask >> i) & 1}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", range(1, 6))
def test_approximation_rows_match_oracle(form, n):
    tables = FORMS[form](n)
    for rgs in iter_rgs(n):
        lo, hi = tables.approx(rgs)
        blocks = blocks_of_rgs(rgs)
        for x in range(1 << n):
            want_lo, want_hi = naive_lower_upper(blocks, _elements(x, n))
            assert (lo[x], hi[x]) == (_mask(want_lo), _mask(want_hi)), (rgs, x)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", range(1, 6))
def test_pair_rows_match_oracle(form, n):
    tables = FORMS[form](n)
    parts = list(iter_rgs(n))
    # twice: the second sweep reads the slots the first one filled
    for _ in range(2):
        for rgs1, rgs2 in product(parts, parts):
            b1, b2 = blocks_of_rgs(rgs1), blocks_of_rgs(rgs2)
            assert blocks_of_rgs(tables.meet(rgs1, rgs2)) == naive_meet(b1, b2)
            assert blocks_of_rgs(tables.join(rgs1, rgs2)) == naive_join(b1, b2)
            assert tables.refines(rgs1, rgs2) == naive_refines(b1, b2)
            union = tables.union(rgs1, rgs2)
            want = naive_union(b1, b2, n)
            assert (None if union is None else blocks_of_rgs(union)) == want


def test_stored_pair_results_are_the_listed_partitions():
    tables = claims._size_tables(4)
    parts = {id(rgs) for rgs in tables.parts}
    for rgs1, rgs2 in product(tables.parts, tables.parts):
        assert id(tables.meet(rgs1, rgs2)) in parts
        assert id(tables.join(rgs1, rgs2)) in parts


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(1, 4))
def test_images_match_direct_image(n, m):
    for table in product(range(m), repeat=n):
        images = GroupContext(n, m, table).images
        for x in range(1 << n):
            assert images[x] == _mask({table[i] for i in _elements(x, n)}), (table, x)


# one group of every claim at n = 4: a surjection onto 2 values (the group of
# the first counterexample of most refuted claims), a bijection for T42-*,
# and a map missing a value for T31-refl
def _group(cid):
    claim = REGISTRY[cid]
    if claim.map_constraint == "bijective":
        return 4, 4, (1, 0, 3, 2)
    if claim.map_constraint == "any":
        return 4, 3, (0, 1, 1, 1)
    return 4, 2, (0, 0, 1, 1)


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_cached_group_equals_evaluation_from_scratch(cid):
    n, m, table = _group(cid)
    tally, fails, reason = _run_group((cid, n, m, table, False, 10**9))

    claims._stored_tables.cache_clear()  # fresh per-size tables as well
    outcomes = Counter()
    want_fails = []
    want_reason = None
    for rgs1, rgs2, xmask in _group_instances(REGISTRY[cid], n):
        parts = (rgs1,) if rgs2 is None else (rgs1, rgs2)
        raw = RawInstance(n, m, table, parts, xmask)
        verdict = evaluate(cid, raw.to_instance())  # builds its own GroupContext
        outcomes[verdict.outcome] += 1
        if verdict.outcome is Outcome.FAILS:
            want_fails.append((raw, verdict.witness))
        if verdict.outcome is Outcome.ILL_TYPED and want_reason is None:
            want_reason = verdict.reason

    assert tally == Tally(
        outcomes[Outcome.HOLDS], outcomes[Outcome.FAILS],
        outcomes[Outcome.ILL_TYPED], outcomes[Outcome.VACUOUS],
    )
    assert fails == want_fails
    assert reason == want_reason


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_direct_tables_give_the_same_reports(cid, monkeypatch):
    # above _TABLE_MAX_N nothing is stored; the sweep must not notice
    stored = verify(cid, 4, max_failures=5)
    monkeypatch.setattr(claims, "_TABLE_MAX_N", 0)
    direct = verify(cid, 4, max_failures=5)
    assert direct.tally == stored.tally
    assert direct.failures == stored.failures
    assert direct.ill_typed_reason == stored.ill_typed_reason
