"""The evaluators' lookup tables against the slow oracles, and cached
evaluation against evaluation from scratch.

Per-size tables (approximations, partition pairs) are compared in both
forms: stored, as a sweep uses them up to claims._TABLE_MAX_N elements,
with partitions named by their relation's index into the listed
partitions, and computed entry by entry as they are read, as a sweep uses
them above it and a single evaluate() at every size, with partitions named
by their packed relation.  Both are read by subscript: approx[h],
meet[h1][h2], join[h1][h2] and union[h1][h2].  On both the meet is
R1 & R2, the union R1 | R2 and the join the closure of R1 | R2.  So is
the image relation f(R), which GroupContext builds for every partition
from per-block contributions in a table on the stored form and block by
block, as it is read, on the direct form; a sweep's groups are checked
against evaluate() on each instance.
Refinement, the union test and the fiber condition have no table of their
own; they are read from the pair rows (R1 ⊆ R2 when meet(R1, R2) = R1, the
fiber condition when meet(ker f, R) = ker f) and checked against the
oracles here.
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
    fiber_condition,
    report_doc,
    verify,
)
from roughmap import claims, kernels, search
from roughmap.claims import GroupContext, Instance
from roughmap.enumeration import iter_canonical_tables, iter_rgs
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

FORMS = {"stored": claims.size_tables, "direct": claims._DirectTables}


def _mask(elements):
    return sum(1 << e for e in elements)


def _elements(mask, n):
    return {i for i in range(n) if (mask >> i) & 1}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", range(1, 6))
def test_approximation_rows_match_oracle(form, n):
    tables = FORMS[form](n)
    for rgs in iter_rgs(n):
        lo, hi = tables.approx[tables.handle(rgs)]
        blocks = blocks_of_rgs(rgs)
        for x in range(1 << n):
            want_lo, want_hi = naive_lower_upper(blocks, _elements(x, n))
            assert (lo[x], hi[x]) == (_mask(want_lo), _mask(want_hi)), (rgs, x)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", range(1, 6))
def test_pair_rows_match_oracle(form, n):
    claims.size_tables.cache_clear()  # rows filled here, not by earlier tests
    tables = FORMS[form](n)
    parts = list(iter_rgs(n))
    assert [tables.rgs(h) for h in tables.handles()] == parts
    # twice: the second sweep reads the rows the first one filled
    for _ in range(2):
        for rgs1, rgs2 in product(parts, parts):
            h1, h2 = tables.handle(rgs1), tables.handle(rgs2)
            b1, b2 = blocks_of_rgs(rgs1), blocks_of_rgs(rgs2)
            assert blocks_of_rgs(tables.rgs(tables.meet[h1][h2])) == naive_meet(b1, b2)
            assert blocks_of_rgs(tables.rgs(tables.join[h1][h2])) == naive_join(b1, b2)
            assert (tables.meet[h1][h2] == h1) == naive_refines(b1, b2)
            union = tables.union[h1][h2]
            want = naive_union(b1, b2, n)
            assert (None if union is None else blocks_of_rgs(tables.rgs(union))) == want


@pytest.mark.parametrize("n", range(1, 6))
def test_stored_pair_rows_name_the_kernel_results(n):
    claims.size_tables.cache_clear()  # rows filled here, not by earlier tests
    tables = claims.size_tables(n)
    parts = [tables.rgs(i) for i in tables.handles()]
    assert parts == list(iter_rgs(n))
    relations = [kernels.partition_relation(rgs) for rgs in parts]
    assert relations == tables.relations
    for i, j in product(range(len(parts)), repeat=2):
        r1, r2 = relations[i], relations[j]
        b1, b2 = blocks_of_rgs(parts[i]), blocks_of_rgs(parts[j])
        assert relations[tables.meet[i][j]] == r1 & r2
        assert relations[tables.join[i][j]] == kernels.closure(r1 | r2, n)
        assert (tables.meet[i][j] == i) == naive_refines(b1, b2)
        union = tables.union[i][j]
        assert (None if union is None else relations[union]) == (
            r1 | r2 if r1 | r2 in relations else None
        )
        assert (None if union is None else blocks_of_rgs(parts[union])) == naive_union(b1, b2, n)


def test_stored_join_rows_at_seven_elements_name_the_closure():
    # the stored join rows merge block masks; the test above checks every
    # pair up to 5 elements against closure(R1 | R2), this one whole rows at
    # 7: the one-block and the all-singleton partitions, and sampled ones
    tables = claims._SizeTables(7)
    relations = tables.relations
    rows = [0, len(relations) - 1] + random.Random(7).sample(range(1, len(relations) - 1), 8)
    for i in rows:
        for j in tables.handles():
            assert relations[tables.join[i][j]] == kernels.closure(relations[i] | relations[j], 7), (i, j)


def test_stored_pair_results_are_the_listed_partitions():
    tables = claims.size_tables(4)
    handles = range(len(tables.relations))
    assert list(tables.handles()) == list(handles)
    for h1, h2 in product(handles, handles):
        assert tables.meet[h1][h2] in handles
        assert tables.join[h1][h2] in handles
        assert tables.union[h1][h2] in (None, *handles)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", range(1, 6))
def test_fiber_condition_is_every_fiber_inside_one_block(form, n):
    # every table, so also tables such as (1, 0, 0, 2) whose values do not
    # appear in order, and tables that miss a value
    # in the slots a context for each claim that reads them is built with
    parts = list(iter_rgs(n))
    u = Universe(n)
    for m in range(1, 4):
        v = Universe(m)
        for table in product(range(m), repeat=n):
            sizes = FORMS[form](n)
            handles = [sizes.handle(rgs) for rgs in parts]
            contexts = [
                GroupContext(sizes, FORMS[form](m), table, claim, handles)
                for claim in REGISTRY.values()
                if claim.fiber_hypothesis
            ]
            fibers = [{x for x in range(n) if table[x] == value} for value in range(m)]
            f = SurjMap(u, v, table)
            for rgs, h in zip(parts, handles):
                blocks = blocks_of_rgs(rgs)
                want = all(any(fiber <= block for block in blocks) for fiber in fibers)
                for ctx in contexts:
                    assert ctx._fiber_ok[h] == want, (table, rgs)
                assert fiber_condition(f, Partition(u, rgs)) == want, (table, rgs)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(1, 4))
def test_images_match_direct_image(n, m):
    for table in product(range(m), repeat=n):
        images = GroupContext(claims.size_tables(n), claims.size_tables(m), table, REGISTRY["T31"], ()).images
        for x in range(1 << n):
            assert images[x] == _mask({table[i] for i in _elements(x, n)}), (table, x)


@pytest.mark.parametrize("n", [6, 7])
def test_group_tables_match_the_kernels_at_the_largest_stored_sizes(n):
    # every canonical table into m <= n values, so also the maps that miss
    # values, built on fresh size tables of U: the images and contributions
    # of every mask, and f(R) of every partition, the object relmap(h)
    # returns for it (all tables at 6 elements, every 40th at 7)
    sample = 1 if n == 6 else 40
    for m in range(1, n + 1):
        sizes, vsizes = claims._SizeTables(n), claims.size_tables(m)
        for k, table in enumerate(iter_canonical_tables(n, m)):
            ctx = GroupContext(sizes, vsizes, table, REGISTRY["T31"], sizes.handles())
            fibers = kernels.fiber_masks(table, m)
            fiber_sizes = [f.bit_count() for f in fibers]
            assert ctx.fibers == fibers and ctx.surjective == all(fibers)
            assert ctx.images == [kernels.image_mask(table, x) for x in range(1 << n)], table
            counts = [tuple(sorted(kernels.fiber_counts(table, x).items())) for x in range(1 << n)]
            # the kernel's contribution, once per count vector
            want = {c: kernels.contribution(fiber_sizes, dict(c)) for c in set(counts)}
            assert ctx.contributions == [want[c] for c in counts], table
            if k % sample == 0:
                for h in sizes.handles():
                    assert ctx.relmaps[h] is ctx.relmap(h), (table, h)


# two groups of every claim, at n = 4 and n = 5: surjections (onto 2 values,
# the group of the first counterexample of most refuted claims, then onto 3
# with uneven fibers), bijections for T42-*, and maps missing a value for
# T31-refl; T31 also gets the group of its first counterexample at n = 6
# (perfbench/workloads.py, PINS["t31-verify-6-3"]), a transitivity failure
def _groups(cid):
    claim = REGISTRY[cid]
    if claim.map_constraint == "bijective":
        return [(4, 4, (1, 0, 3, 2)), (5, 5, (2, 0, 4, 1, 3))]
    if claim.map_constraint == "any":
        return [(4, 3, (0, 1, 1, 1)), (5, 3, (0, 2, 2, 0, 0))]
    groups = [(4, 2, (0, 0, 1, 1)), (5, 3, (0, 0, 1, 1, 2))]
    if cid == "T31":
        groups.append((6, 3, (0, 0, 1, 1, 2, 2)))
    return groups


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
    done, tally, fails, reason = _run_task(REGISTRY[cid], groups, False, 10**9)
    assert done == len(groups)

    claims.size_tables.cache_clear()  # fresh per-size tables as well
    outcomes = Counter()
    want_fails = []
    want_reason = None
    for n, m, table in groups:
        for parts, xmask in _group_instances(REGISTRY[cid], n):
            raw = RawInstance(n, m, table, parts, xmask)
            verdict = evaluate(cid, raw.to_instance())  # its own GroupContext, on direct tables
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


def _module_state():
    return {k: repr(v) for k, v in vars(claims).items() if not k.startswith("__")}


def _spy(monkeypatch, module, name) -> Counter:
    """Replace module.name by a wrapper that counts its calls by argument."""
    calls = Counter()
    real = getattr(module, name)

    def counted(*args):
        calls[args] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_evaluation_reads_only_the_partitions_it_names(monkeypatch):
    # a single instance at 7 elements: f(R) of R1, R2 and their meet, where
    # a sweep's group builds f(R) for all 877 partitions; an approximation
    # claim on a 7 -> 7 bijection also reads the rows of V over f(R)
    # without the tables of V, and neither lists a partition.  Each
    # evaluate() builds its own tables and fills only their memos: after
    # the reset, size_tables stays empty and no other module attribute of
    # claims reads differently
    calls = []
    relmap = GroupContext.relmap

    def counted(ctx, h):
        calls.append(h)
        return relmap(ctx, h)

    monkeypatch.setattr(GroupContext, "relmap", counted)
    listed = _spy(monkeypatch, claims, "_listed_relations")
    claims.size_tables.cache_clear()
    before = _module_state()
    u = Universe(7)
    f = SurjMap(u, Universe(3), (0, 0, 1, 1, 2, 2, 2))
    r1, r2 = Partition(u, (0, 1, 0, 2, 1, 3, 3)), Partition(u, (0, 0, 1, 1, 2, 2, 0))
    assert evaluate("L31-2-inc", Instance(f, (r1, r2))).outcome is Outcome.HOLDS
    assert len(calls) <= 3
    calls.clear()
    g = SurjMap(u, Universe(7), (3, 0, 6, 1, 5, 2, 4))
    evaluate("T41-1", Instance(g, (r1,), Subset(u, 0b0100110)))
    assert len(calls) == 1
    assert not listed
    assert claims.size_tables.cache_info().currsize == 0
    assert _module_state() == before


def test_stored_tables_fill_each_row_once_on_its_first_read(monkeypatch):
    # the spies go in before the tables are built, which bind their fills
    rows = _spy(monkeypatch, claims._SizeTables, "_row")
    joins = _spy(monkeypatch, claims._SizeTables, "_join_row")
    masks = _spy(monkeypatch, kernels, "lower_upper_masks")
    tables = claims._SizeTables(5)
    assert not (rows or joins or masks)

    def fills():
        return sum(rows.values()), sum(joins.values()), sum(masks.values())

    # a pair row fills on its first entry read, in place of its
    # placeholder, and a placeholder held past that reads the filled row;
    # an approximation row fills on its first read
    handles = tables.handles()
    for i in handles:
        for name in ("meet", "join", "union"):
            table = getattr(tables, name)
            held = table[i]
            before = fills()
            entry = held[i]
            after = fills()
            row = table[i]
            assert after != before and type(row) is list and row[i] == entry, (name, i)
            assert held[0] == row[0] and table[i] is row and fills() == after, (name, i)
        before = fills()
        row = tables.approx[i]
        after = fills()
        assert after != before and tables.approx[i] is row and fills() == after, ("approx", i)
    assert rows == Counter({(tables, op, i): 1 for op in (int.__and__, int.__or__) for i in handles})
    assert joins == Counter({(tables, i): 1 for i in handles})
    assert masks == Counter({(tables.blocks[i], x): 1 for i in handles for x in range(1 << 5)})


def _groups_of(cid, n):
    """A few (n, m, table) groups, n >= 4, that meet the claim's map constraint."""
    constraint = REGISTRY[cid].map_constraint
    if constraint == "bijective":
        return [(n, n, tuple(range(n)))]
    groups = [(n, 3, (0, 0, 1, 2, 1)[:n]), (n, 2, (0, 1, 0, 1, 1)[:n])]
    return groups + [(n, 3, (0, 2, 2, 0, 2)[:n])] * (constraint == "any")


def test_a_sweep_reads_its_per_instance_tables_as_lists(monkeypatch):
    # on the stored form every table an evaluator reads per instance is an
    # exact list, which 3.11 subscripts fastest: the pair tables, each row
    # they have filled, and each context's f(R) list, images and the
    # approximation or fiber-condition slots its claim reads, one per
    # partition; a context's claim that reads neither slot gets neither
    contexts = []

    def recorded(sizes, vsizes, table, claim, handles):
        contexts.append((GroupContext(sizes, vsizes, table, claim, handles), claim))
        return contexts[-1][0]

    monkeypatch.setattr(search, "GroupContext", recorded)
    claims.size_tables.cache_clear()
    try:
        for cid in sorted(REGISTRY):
            _run_task(REGISTRY[cid], _groups_of(cid, 5), False, 0)
        tables = claims.size_tables(5)
        for name in ("meet", "join", "union"):
            table = getattr(tables, name)
            filled = [row for row in table if type(row) is not claims._Row]
            assert type(table) is list and len(table) == 52 and filled, name
            assert all(type(row) is list for row in filled), name
        assert len(contexts) == sum(len(_groups_of(cid, 5)) for cid in REGISTRY)
        for ctx, claim in contexts:
            assert type(ctx.sizes) is claims._SizeTables
            for slots in (ctx.relmaps, ctx.images):
                assert type(slots) is list
            for name, read in (("_approx", claim.needs_subset), ("_fiber_ok", claim.fiber_hypothesis)):
                if read:
                    assert type(getattr(ctx, name)) is list and len(getattr(ctx, name)) == 52, (claim.id, name)
                else:
                    assert not hasattr(ctx, name), (claim.id, name)
    finally:
        claims.size_tables.cache_clear()


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_verdicts_do_not_depend_on_the_order_slots_fill(form, cid):
    # a group's instances in reverse handle order, on tables and a context
    # of their own, give the verdicts of the forward order: each pair row
    # and per-size entry fills to the same value whichever instance reads
    # it first, and the context's slots are filled before either order
    claim = REGISTRY[cid]
    fresh = claims._SizeTables if form == "stored" else claims._DirectTables

    def verdicts(n, m, table, reverse):
        sizes = fresh(n)
        handles = list(sizes.handles())
        ctx = GroupContext(sizes, fresh(m), table, claim, handles)
        seconds = handles if claim.partitions == 2 else [None]
        xmasks = list(range(1 << n)) if claim.needs_subset else [None]
        order = list(product(handles, seconds, xmasks))
        out = {}
        for key in reversed(order) if reverse else order:
            verdict = claims.evaluate_raw(cid, ctx, *key)
            witness = verdict.witness if verdict.outcome is Outcome.FAILS else None
            out[key] = (verdict.outcome, verdict.reason if verdict.outcome is Outcome.ILL_TYPED else None, witness)
        return out

    for n, m, table in _groups_of(cid, 4):
        forward = verdicts(n, m, table, False)
        assert verdicts(n, m, table, True) == forward, table


def _slot_values(ctx):
    """Every slot a context has: what it holds, and a copy of each list or
    dict entry, so that a slot table written in place reads differently."""
    out = {}
    for name in GroupContext.__slots__:
        if hasattr(ctx, name):
            value = getattr(ctx, name)
            held = list(value.items()) if isinstance(value, dict) else list(value) if isinstance(value, list) else None
            out[name] = (value, held)
    return out


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_a_context_never_changes_while_its_group_is_evaluated(cid):
    # on stored tables at n = 5, m = 3, a context built for a claim holds
    # every slot the claim reads: evaluating all of its group's instances,
    # witnesses included, writes none of them
    claim = REGISTRY[cid]
    sizes, vsizes = claims._SizeTables(5), claims._SizeTables(3)
    handles = sizes.handles()
    seconds = handles if claim.partitions == 2 else [None]
    xmasks = range(1 << 5) if claim.needs_subset else [None]
    for table in [(0, 0, 1, 2, 1), (0, 1, 2, 2, 2)]:
        ctx = GroupContext(sizes, vsizes, table, claim, handles)
        before = _slot_values(ctx)
        for h1, h2, xmask in product(handles, seconds, xmasks):
            verdict = claims.evaluate_raw(cid, ctx, h1, h2, xmask)
            if verdict.outcome is Outcome.FAILS:
                verdict.witness
        assert _slot_values(ctx) == before, table


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_direct_tables_give_the_same_reports(cid, monkeypatch):
    # above _TABLE_MAX_N nothing is stored per group; the sweep must not
    # notice, and it builds one table per size, which lists the partitions
    # once and each partition's block masks at most once for every group
    # (relation_rgs, which names a witness, reads the blocks afresh); the
    # cache is cleared on both sides of the patch, or a size would keep the
    # form it had before
    stored = verify(cid, 4, max_failures=5)
    claims.size_tables.cache_clear()
    monkeypatch.setattr(claims, "_TABLE_MAX_N", 0)
    listed = _spy(monkeypatch, claims, "_listed_relations")
    blocks = _spy(monkeypatch, kernels, "relation_blocks")
    named = _spy(monkeypatch, kernels, "relation_rgs")
    try:
        direct = verify(cid, 4, max_failures=5, workers=1)
        assert claims.size_tables.cache_info().misses == 4
    finally:
        claims.size_tables.cache_clear()
    assert listed == Counter({(n,): 1 for n in range(1, 5)})
    assert max((blocks - named).values(), default=0) <= 1
    assert direct.tally == stored.tally
    assert direct.failures == stored.failures
    assert direct.ill_typed_reason == stored.ill_typed_reason


@pytest.mark.parametrize("form", ["stored", "direct"])
def test_subset_claims_are_ill_typed_where_the_image_relation_is_not_an_equivalence(form, monkeypatch):
    # on the map 6 -> 3 that folds {0, 1}, {2, 3} and {4, 5}, T31 fails on
    # 24 partitions: f(R) is no equivalence there, so their approximation
    # slot is None and each of the four subset claims that range over
    # every surjection is ill-typed on all 2^6 subsets of those partitions
    # (a None slot read as vacuous would count none)
    group = [(6, 3, (0, 0, 1, 1, 2, 2))]
    claims.size_tables.cache_clear()
    if form == "direct":
        monkeypatch.setattr(claims, "_TABLE_MAX_N", 0)
    try:
        _, t31, _, _ = _run_task(REGISTRY["T31"], group, False, 0)
        assert t31.fails == 24
        for cid in ("T41-1", "T41-2", "T43-1", "T43-2"):
            done, tally, _, reason = _run_task(REGISTRY[cid], group, False, 0)
            assert done == 1
            assert tally.total == 203 << 6
            assert tally.ill_typed == t31.fails << 6 == 1_536, cid
            assert reason == "relmap-not-equivalence"
    finally:
        claims.size_tables.cache_clear()


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", range(1, 6))
def test_image_relation_matches_oracle(form, n):
    # f(R), and the rows of V over it in the approximation slots of a
    # context built for a subset claim
    parts = list(iter_rgs(n))
    for m in range(1, 4):
        for table in product(range(m), repeat=n):
            sizes = FORMS[form](n)
            handles = [sizes.handle(rgs) for rgs in parts]
            ctx = GroupContext(sizes, FORMS[form](m), table, REGISTRY["T41-1"], handles)
            for rgs, h in zip(parts, handles):
                rel = ctx.relmaps[h]
                assert ctx.relmap(h) is rel
                pairs = naive_relmap(table, m, blocks_of_rgs(rgs))
                assert set(kernels.pairs(rel.packed, m)) == pairs, (table, rgs)
                assert rel.packed == sum(1 << a * m + b for a, b in pairs)
                refl, sym, trans = naive_classify(pairs, m)
                assert rel.flags == refl * 1 + sym * 2 + trans * 4, (table, rgs)
                approx = ctx._approx[h]
                if not (refl and sym and trans):
                    assert approx is None
                    continue
                _, _, lo_v, hi_v = approx
                vblocks = {frozenset(w for a, w in pairs if a == b) for b in range(m)}
                for y in range(1 << m):
                    want_lo, want_hi = naive_lower_upper(vblocks, _elements(y, m))
                    assert (lo_v[y], hi_v[y]) == (_mask(want_lo), _mask(want_hi))


def _random_rgs(rng, n):
    k = rng.choice((2, 3, 4, n))  # mostly few blocks, which cut fibers unevenly
    labels = [rng.randrange(k) for _ in range(n)]
    first = {}
    return tuple(first.setdefault(b, len(first)) for b in labels)


def _union_pair(rng, n):
    """Two rgs whose union is an equivalence: each block of a coarser
    partition is one block of R1 split in R2, or the reverse."""
    blocks1, blocks2 = [], []
    for block in blocks_of_rgs(_random_rgs(rng, n)):
        whole, split = (blocks1, blocks2) if rng.random() < 0.5 else (blocks2, blocks1)
        whole.append(block)
        halves = ([], [])
        for x in block:
            halves[rng.randrange(2)].append(x)
        split.extend(half for half in halves if half)
    u = Universe(n)
    return Partition.from_blocks(u, blocks1).rgs, Partition.from_blocks(u, blocks2).rgs


@pytest.mark.parametrize("form, n", [("stored", 7), ("direct", 9)])
def test_sampled_pairs_match_oracle_above_five_elements(form, n):
    tables = claims.size_tables(n)
    assert type(tables) is {"stored": claims._SizeTables, "direct": claims._DirectTables}[form]
    rng = random.Random(n)
    pairs = [(_random_rgs(rng, n), _random_rgs(rng, n)) for _ in range(40)]
    pairs += [_union_pair(rng, n) for _ in range(20)]
    # comparable pairs: the meet below R1, the join above it
    u = Universe(n)
    for p, q in pairs[:20]:
        bp, bq = blocks_of_rgs(p), blocks_of_rgs(q)
        pairs += [(Partition.from_blocks(u, naive_meet(bp, bq)).rgs, p), (p, Partition.from_blocks(u, naive_join(bp, bq)).rgs)]
    seen = Counter()
    for rgs1, rgs2 in pairs:
        h1, h2 = tables.handle(rgs1), tables.handle(rgs2)
        b1, b2 = blocks_of_rgs(rgs1), blocks_of_rgs(rgs2)
        assert blocks_of_rgs(tables.rgs(tables.meet[h1][h2])) == naive_meet(b1, b2), (rgs1, rgs2)
        assert blocks_of_rgs(tables.rgs(tables.join[h1][h2])) == naive_join(b1, b2), (rgs1, rgs2)
        refines = tables.meet[h1][h2] == h1
        assert refines == naive_refines(b1, b2), (rgs1, rgs2)
        union = tables.union[h1][h2]
        want = naive_union(b1, b2, n)
        assert (None if union is None else blocks_of_rgs(tables.rgs(union))) == want, (rgs1, rgs2)
        seen[refines, union is None] += 1
    # the sample reaches both answers of refinement and of the union test
    assert all(seen[key] for key in [(True, False), (False, False), (False, True)]), seen


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
        ctx = GroupContext(claims.size_tables(n), claims.size_tables(m), table, REGISTRY["T31"], ())
        assert ctx.relmap(ctx.sizes.handle(p1.rgs)).packed == sum(1 << a * m + b for a, b in fr)
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


def test_process_wide_memos_do_not_depend_on_earlier_sweeps():
    claims.size_tables.cache_clear()
    fresh = _settled_t31()
    claims.size_tables.cache_clear()
    verify("L31-3-join", 4, 3, workers=1)
    verify("T41-1", 4, 3, workers=1)
    # maps that miss values, so fiber sizes T31 never sees come first
    verify("T31-refl", 4, 3, workers=1)
    assert claims.size_tables(4).block_contributions and claims.size_tables(3).classified
    assert _settled_t31() == fresh
