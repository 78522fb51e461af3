"""The evaluators' lookup tables against the slow oracles, and cached
evaluation against evaluation from scratch.

Per-size tables (approximations, partition pairs) are compared in both
forms: stored, as used up to claims._TABLE_MAX_N elements, with partitions
named by their index into the listed partitions, and computed on every
call, as used above it, with partitions named by their rgs.  So is the
image relation f(R), which is built from per-block contributions in a table
up to that size and block by block above it.
"""

import json
import random
from collections import Counter
from itertools import product

import pytest

from roughmap import (
    REGISTRY,
    Outcome,
    Partition,
    SurjMap,
    Subset,
    Universe,
    approximations,
    evaluate,
    report_doc,
    verify,
)
from roughmap import claims, kernels
from roughmap.claims import GroupContext, Instance
from roughmap.enumeration import iter_rgs
from roughmap.search import RawInstance, Tally, _run_task

from oracles import (
    blocks_of_rgs,
    naive_classify,
    naive_join,
    naive_lower_upper,
    naive_meet,
    naive_refines,
    naive_relmap,
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
        lo, hi = tables.approx(tables.handle(rgs))
        blocks = blocks_of_rgs(rgs)
        for x in range(1 << n):
            want_lo, want_hi = naive_lower_upper(blocks, _elements(x, n))
            assert (lo[x], hi[x]) == (_mask(want_lo), _mask(want_hi)), (rgs, x)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", range(1, 6))
def test_pair_rows_match_oracle(form, n):
    tables = FORMS[form](n)
    parts = list(iter_rgs(n))
    # twice: the second sweep reads the rows the first one filled
    for _ in range(2):
        for rgs1, rgs2 in product(parts, parts):
            h1, h2 = tables.handle(rgs1), tables.handle(rgs2)
            b1, b2 = blocks_of_rgs(rgs1), blocks_of_rgs(rgs2)
            assert blocks_of_rgs(tables.rgs(tables.meet(h1, h2))) == naive_meet(b1, b2)
            assert blocks_of_rgs(tables.rgs(tables.join(h1, h2))) == naive_join(b1, b2)
            assert tables.refines(h1, h2) == naive_refines(b1, b2)
            union = tables.union(h1, h2)
            want = naive_union(b1, b2, n)
            assert (None if union is None else blocks_of_rgs(tables.rgs(union))) == want


def test_stored_pair_results_are_the_listed_partitions():
    tables = claims._size_tables(4)
    handles = range(len(tables.parts))
    assert list(tables.handles()) == list(handles)
    for h1, h2 in product(handles, handles):
        assert tables.meet(h1, h2) in handles
        assert tables.join(h1, h2) in handles
        assert tables.union(h1, h2) in (None, *handles)
        assert type(tables.refines(h1, h2)) is bool


@pytest.mark.parametrize("n", range(1, 6))
def test_stored_pair_rows_name_the_kernel_results(n):
    claims._stored_tables.cache_clear()  # rows filled here, not by earlier tests
    tables = claims._size_tables(n)
    direct = claims._DirectTables(n)
    parts = tables.parts
    assert parts == list(iter_rgs(n))
    for i, j in product(range(len(parts)), repeat=2):
        rgs1, rgs2 = parts[i], parts[j]
        assert parts[tables.meet(i, j)] == kernels.meet_rgs(rgs1, rgs2)
        assert parts[tables.join(i, j)] == kernels.join_rgs(rgs1, rgs2)
        assert tables.refines(i, j) == kernels.refines_rgs(rgs1, rgs2)
        union = tables.union(i, j)
        assert (None if union is None else parts[union]) == direct.union(rgs1, rgs2)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(1, 4))
def test_images_match_direct_image(n, m):
    for table in product(range(m), repeat=n):
        images = GroupContext(n, m, table).images
        for x in range(1 << n):
            assert images[x] == _mask({table[i] for i in _elements(x, n)}), (table, x)


# two groups of every claim, at n = 4 and n = 5: surjections (onto 2 values,
# the group of the first counterexample of most refuted claims, then onto 3
# with uneven fibers), bijections for T42-*, and maps missing a value for
# T31-refl
def _groups(cid):
    claim = REGISTRY[cid]
    if claim.map_constraint == "bijective":
        return [(4, 4, (1, 0, 3, 2)), (5, 5, (2, 0, 4, 1, 3))]
    if claim.map_constraint == "any":
        return [(4, 3, (0, 1, 1, 1)), (5, 3, (0, 2, 2, 0, 0))]
    return [(4, 2, (0, 0, 1, 1)), (5, 3, (0, 0, 1, 1, 2))]


def _group_instances(claim, n):
    """(partitions, xmask) of one group in canonical order, by rgs."""
    parts = list(iter_rgs(n))
    seconds = parts if claim.partitions == 2 else [None]
    xmasks = range(1 << n) if claim.needs_subset else [None]
    for rgs1, rgs2, xmask in product(parts, seconds, xmasks):
        yield ((rgs1,) if rgs2 is None else (rgs1, rgs2)), xmask


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_cached_group_equals_evaluation_from_scratch(cid):
    groups = _groups(cid)
    done, tally, fails, reason = _run_task((cid, groups, False, 10**9, None))
    assert done == len(groups)

    claims._stored_tables.cache_clear()  # fresh per-size tables as well
    outcomes = Counter()
    want_fails = []
    want_reason = None
    for n, m, table in groups:
        for parts, xmask in _group_instances(REGISTRY[cid], n):
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


@pytest.mark.parametrize("stored", [True, False], ids=["stored", "direct"])
@pytest.mark.parametrize("n", range(1, 6))
def test_image_relation_matches_oracle(stored, n, monkeypatch):
    if not stored:
        monkeypatch.setattr(claims, "_TABLE_MAX_N", 0)
    parts = list(iter_rgs(n))
    for m in range(1, 4):
        for table in product(range(m), repeat=n):
            ctx = GroupContext(n, m, table)
            for rgs in parts:
                h = ctx.sizes.handle(rgs)
                rel = ctx.relmaps[h]
                assert ctx.relmap(h) is rel
                pairs = naive_relmap(table, m, blocks_of_rgs(rgs))
                assert set(kernels.pairs(rel.packed, m)) == pairs, (table, rgs)
                assert rel.packed == sum(1 << a * m + b for a, b in pairs)
                refl, sym, trans = naive_classify(pairs, m)
                assert rel.flags == refl * 1 + sym * 2 + trans * 4, (table, rgs)
                approx = ctx.approx(h)
                if not (refl and sym and trans):
                    assert rel.rgs is None and approx is None
                    continue
                assert rel.rgs == kernels.relation_rgs(rel.packed, m)
                _, _, lo_v, hi_v = approx
                vblocks = blocks_of_rgs(rel.rgs)
                for y in range(1 << m):
                    want_lo, want_hi = naive_lower_upper(vblocks, _elements(y, m))
                    assert (lo_v[y], hi_v[y]) == (_mask(want_lo), _mask(want_hi))


def _random_rgs(rng, n):
    k = rng.choice((2, 3, 4, n))  # mostly few blocks, which cut fibers unevenly
    labels = [rng.randrange(k) for _ in range(n)]
    first = {}
    return tuple(first.setdefault(b, len(first)) for b in labels)


# tables above _TABLE_MAX_N: a constant map (one fiber holding all of U),
# maps with uneven fibers and maps with even fibers
LARGE_MAPS = [
    (9, 1, (0,) * 9),
    (9, 3, (0, 0, 0, 0, 0, 0, 1, 1, 2)),
    (9, 3, (0, 0, 0, 1, 1, 1, 2, 2, 2)),
    (10, 4, (3, 0, 1, 0, 2, 0, 1, 0, 3, 0)),
    (10, 2, (0, 1) * 5),
    (10, 1, (0,) * 10),
]


@pytest.mark.parametrize("n, m, table", LARGE_MAPS)
def test_large_universes_agree_with_the_reference_relmap(n, m, table):
    assert n > claims._TABLE_MAX_N
    rng = random.Random(n * 100 + m)
    u, v = Universe(n), Universe(m)
    f = SurjMap(u, v, table)

    def oracle(p):
        return naive_relmap(table, m, blocks_of_rgs(p.rgs))

    # under (0, 0, 0, 1, 1, 1, 2, 2, 2) this f(R) relates 1 to 0 and 0 to 2
    # but not 1 to 2
    intransitive = (0, 1, 2, 0, 3, 3, 1, 4, 4, 5)[:n]
    parts = [tuple([0] * n), tuple(range(n)), intransitive]
    parts += [_random_rgs(rng, n) for _ in range(40)]
    parts = [Partition(u, rgs) for rgs in parts]
    for p1 in parts:
        fr = oracle(p1)
        is_eq = all(naive_classify(fr, m))
        assert GroupContext(n, m, table).relmap(p1.rgs).packed == sum(1 << a * m + b for a, b in fr)
        want = Outcome.HOLDS if is_eq else Outcome.FAILS
        assert evaluate("T31", Instance(f, (p1,))).outcome is want

        p2 = parts[rng.randrange(len(parts))]
        holds = oracle(p1.meet(p2)) <= (fr & oracle(p2))
        want = Outcome.HOLDS if holds else Outcome.FAILS
        assert evaluate("L31-2-inc", Instance(f, (p1, p2))).outcome is want

        x = Subset(u, rng.randrange(1 << n))
        verdict = evaluate("T41-1", Instance(f, (p1,), x))
        if not is_eq:
            assert verdict.outcome is Outcome.ILL_TYPED
            continue
        vblocks = {frozenset(w for a, w in fr if a == b) for b in range(m)}
        lo_v, _ = naive_lower_upper(vblocks, set(f.image_subset(x).elements()))
        holds = set(f.image_subset(approximations(p1, x)[0]).elements()) <= lo_v
        assert verdict.outcome is (Outcome.HOLDS if holds else Outcome.FAILS)


def _settled_t31():
    doc = json.loads(json.dumps(report_doc(verify("T31", 5, 3, workers=1))))
    del doc["wall_time_s"]
    return doc


def _clear_memos():
    claims._CONTRIBUTIONS.clear()
    claims._RELATIONS.clear()
    claims._stored_tables.cache_clear()


def test_process_wide_memos_do_not_depend_on_earlier_sweeps():
    _clear_memos()
    fresh = _settled_t31()
    _clear_memos()
    verify("L31-3-join", 4, 3, workers=1)
    verify("T41-1", 4, 3, workers=1)
    # maps that miss values, so fiber sizes T31 never sees come first
    verify("T31-refl", 4, 3, workers=1)
    assert claims._CONTRIBUTIONS and claims._RELATIONS
    assert _settled_t31() == fresh
