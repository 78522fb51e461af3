import os
import subprocess
import sys
from itertools import permutations

import pytest

from roughmap import Outcome, REGISTRY, evaluate, falsify, get_claim, search, verify
from roughmap.docio import report_doc
from roughmap.enumeration import (
    bell,
    canonical_table,
    iter_canonical_surjections,
    iter_canonical_tables,
    iter_rgs,
    iter_surjections,
    iter_tables,
    stirling2,
    surjection_count,
)

REFUTED = [cid for cid, c in REGISTRY.items() if c.expected_status == "refuted"]


@pytest.mark.parametrize("cid", REFUTED)
def test_falsify_finds_revalidating_counterexamples(cid):
    report = falsify(cid, max_u=5, max_v=3)
    assert report.found
    raw = report.first_counterexample
    verdict = evaluate(cid, raw.to_instance())
    assert verdict.outcome is Outcome.FAILS
    assert verdict.witness == report.witness


def test_falsify_stops_at_first_failing_group():
    # tallies count only work done up to the stopping point
    report = falsify("L31-1-fwd", max_u=6, max_v=3)
    assert report.found
    assert report.tally.fails == 1
    space = sum(
        bell(n) ** 2 * sum(1 for _ in iter_canonical_surjections(n, m))
        for n in range(1, 7)
        for m in range(1, min(n, 3) + 1)
    )
    assert report.instances < space


def test_falsify_exhausts_on_proved_claim():
    report = falsify("T42-1", max_u=4, max_v=4)
    assert not report.found
    assert report.first_counterexample is None
    assert report.tally.fails == 0
    assert report.tally.holds == report.instances


def test_falsify_reports_uniform_ill_typedness():
    report = falsify("L32", max_u=3, max_v=3)
    assert not report.found
    assert report.tally.ill_typed == report.instances
    assert report.ill_typed_reason == "difference-not-reflexive"


def test_verify_space_size_is_the_full_product():
    # every surjection (not just canonical), every partition, every subset
    report = verify("T41-1", max_u=4, max_v=2)
    want = 0
    for n in range(1, 5):
        maps = sum(surjection_count(n, m) for m in range(1, min(n, 2) + 1))
        want += maps * bell(n) * 2**n
    assert report.instances == want
    assert report.tally.fails > 0
    assert len(report.failures) <= 20  # default cap on retained failures


def test_verify_failure_cap_and_full_tally():
    capped = verify("T41-1", max_u=4, max_v=2, max_failures=3)
    assert len(capped.failures) == 3
    uncapped = verify("T41-1", max_u=4, max_v=2, max_failures=10**9)
    assert capped.tally == uncapped.tally
    assert uncapped.tally.fails == len(uncapped.failures)
    assert capped.failures == uncapped.failures[:3]


def test_verify_failures_revalidate():
    report = verify("T43-2", max_u=4, max_v=3, max_failures=5)
    assert report.found
    for raw, witness in report.failures:
        verdict = evaluate("T43-2", raw.to_instance())
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness == witness


def test_verify_clean_claim_has_zero_failures():
    report = verify("T42-2", max_u=4)
    assert not report.found
    assert report.failures == []
    assert report.tally.holds == report.instances


# T31 at (6, 3) packs into two tasks, and its first failing group sits in
# the middle of the first one
FALSIFY_BOUNDS = {"T31": (6, 3)}
WORKER_COUNT_CLAIMS = ["T41-1", "L31-2-inc", "T31-refl", "T31"]
WORKER_COUNT_CASES = [pytest.param(cid, FALSIFY_BOUNDS.get(cid, (5, 3)), id=cid) for cid in WORKER_COUNT_CLAIMS]
# every claim whose falsify finds a counterexample: at any bounds it stops
# inside the first task (T31, the deepest, after 12,580 instances and 123
# groups), so no early stop lands in a pool task at the default task size
FAILING_CLAIMS = [
    "T31", "L31-1-fwd", "L31-1-bwd", "L31-2-inc", "L31-3-inc",
    "L31-3-join", "T41-1", "T41-2", "T43-1", "T43-2",
]
FIRST_TASK_CASES = WORKER_COUNT_CASES + [pytest.param(cid, (7, 7), id=f"{cid}-7-7") for cid in FAILING_CLAIMS]
# on more than one worker the first task of a sweep runs in the caller and
# the rest on the pool; with tasks this small every failing sweep above
# stops in a pool task
SMALL_TASK = 100


def _falsify_on_each_worker_count(cid, bounds, in_first_task):
    max_u, max_v = bounds
    reports = [falsify(cid, max_u, max_v, workers=w) for w in (1, 2, 8)]
    first = reports[0]
    if first.found:
        claim = get_claim(cid)
        first_task = len(next(search._tasks(claim, search._groups(claim, max_u, max_v, True))))
        if in_first_task:
            # the groups after the failing one in its task must go uncounted
            assert first.groups < first_task
        else:
            assert first.groups > first_task
    for other in reports[1:]:
        assert other.tally == first.tally
        assert other.first_counterexample == first.first_counterexample
        assert other.witness == first.witness
        assert other.groups == first.groups
    return first


@pytest.mark.parametrize("cid, bounds", FIRST_TASK_CASES)
def test_worker_count_does_not_change_results(cid, bounds):
    report = _falsify_on_each_worker_count(cid, bounds, in_first_task=True)
    assert report.found == (cid in FAILING_CLAIMS)


@pytest.mark.parametrize("cid, bounds", WORKER_COUNT_CASES)
def test_worker_count_does_not_change_results_found_in_a_pool_task(cid, bounds, monkeypatch):
    monkeypatch.setattr(search, "TASK_INSTANCES", SMALL_TASK)
    _falsify_on_each_worker_count(cid, bounds, in_first_task=False)


def _settled_doc(report):
    doc = report_doc(report)
    for key in ("wall_time_s", "workers", "tool"):
        del doc[key]
    return doc


def _verify_on_each_worker_count():
    reports = [verify("T43-1", max_u=4, max_v=2, workers=w) for w in (1, 2, 8)]
    first = reports[0]
    for other in reports[1:]:
        assert other.tally == first.tally
        assert other.failures == first.failures
    # 852 groups in several tasks, and 2,160 failures against a cap of 20
    docs = [_settled_doc(verify("T31", 6, 3, workers=w)) for w in (1, 2)]
    assert docs[0]["groups"] == 852 and docs[0]["tallies"]["fails"] == 2160
    assert docs[1] == docs[0]


def test_verify_worker_count_does_not_change_failures():
    _verify_on_each_worker_count()


def test_verify_worker_count_does_not_change_failures_in_small_tasks(monkeypatch):
    monkeypatch.setattr(search, "TASK_INSTANCES", SMALL_TASK)
    _verify_on_each_worker_count()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_pool_tasks_keep_only_the_failures_the_report_has_room_for(monkeypatch):
    # each pool task is handed the room left in the report when it is
    # submitted, so once 20 failures are kept the later tasks build no witness
    caps = []
    get_pool = search._get_pool

    class Recording:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, args):
            caps.append(args[3])
            return self.pool.submit(fn, args)

    monkeypatch.setattr(search, "_get_pool", lambda workers: Recording(get_pool(workers)))
    report = verify("T31", 6, 3, workers=2)
    assert report.failures == verify("T31", 6, 3, workers=1).failures
    assert caps == sorted(caps, reverse=True) and caps[0] <= 20 and caps[-1] == 0


@pytest.mark.parametrize("canonical", [False, True])
def test_groups_walk_the_enumeration_streams(canonical):
    # a bijection is a surjection onto |V| = |U|, so every claim's maps come
    # from the table and surjection streams of `enumeration`
    surjections = iter_canonical_surjections if canonical else iter_surjections
    tables = iter_canonical_tables if canonical else iter_tables
    claims = {c.map_constraint: c for c in REGISTRY.values()}
    assert sorted(claims) == ["any", "bijective", "surjective"]
    for max_v in range(1, 8):
        for constraint, claim in claims.items():
            expected = []
            for n in range(1, 7):
                if constraint == "bijective":
                    if n <= max_v:
                        perms = [tuple(range(n))] if canonical else permutations(range(n))
                        expected += [(n, n, p) for p in perms]
                elif constraint == "surjective":
                    expected += [(n, m, t) for m in range(1, min(n, max_v) + 1) for t in surjections(n, m)]
                else:
                    expected += [(n, m, t) for m in range(1, max_v + 1) for t in tables(n, m)]
            assert list(search._groups(claim, 6, max_v, canonical)) == expected, (constraint, max_v)


def test_task_with_no_room_counts_its_failures_and_keeps_none():
    groups = list(search._groups(get_claim("T41-1"), 4, 2, False))
    done, tally, fails, _ = search._run_task(("T41-1", groups, False, 0))
    assert (done, fails) == (len(groups), [])
    assert tally == verify("T41-1", 4, 2).tally


# at these bounds every claim whose falsify finds a counterexample fails
# also in tables that are not their orbit's canonical form: the second
# half of the surjections onto two values relabel the first half
ORBIT_BOUNDS = {"T31": (6, 3)}


@pytest.mark.parametrize("cid", FAILING_CLAIMS)
def test_failures_in_relabeled_tables_carry_the_witness_evaluate_gives(cid, monkeypatch):
    # with no cap every failure is kept, and on 2 workers tiny tasks start
    # inside an orbit, so a task's first group of an orbit is not canonical
    max_u, max_v = ORBIT_BOUNDS.get(cid, (4, 2))
    monkeypatch.setattr(search, "TASK_INSTANCES", SMALL_TASK)
    reports = [verify(cid, max_u, max_v, workers=w, max_failures=10**9) for w in (1, 2)]
    assert reports[1].failures == reports[0].failures
    relabeled = 0
    for raw, witness in reports[0].failures:
        relabeled += canonical_table(raw.table) != raw.table
        assert evaluate(cid, raw.to_instance()).witness == witness, raw
    assert 0 < relabeled < len(reports[0].failures)


def _contexts_of(monkeypatch, cid, max_u, max_v):
    """The contexts a 1-worker verify builds, in order."""
    calls = []
    real = search.GroupContext

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(search, "GroupContext", spy)
    report = verify(cid, max_u, max_v, workers=1)
    monkeypatch.setattr(search, "GroupContext", real)
    assert len(calls) == report.groups
    return calls


def _relations(ctx):
    return [(rel.packed, rel.flags) for rel in ctx.relmaps]


def test_contexts_of_one_canonical_table_share_its_tables(monkeypatch):
    # verify builds each group's context on its table's canonical form t0,
    # and the contexts of one (n, m, t0) share the tables of the first, which
    # equal those of a context on fresh size tables
    from roughmap import claims

    # T31-refl: maps that miss values; T42-1: every bijection relabels the identity
    for cid, max_u, max_v in [("T31-refl", 4, 3), ("T42-1", 4, 4), ("L31-2-inc", 4, 3)]:
        contexts = _contexts_of(monkeypatch, cid, max_u, max_v)
        first = {}
        for ctx in contexts:
            assert ctx.table == canonical_table(ctx.table)
            key = ctx.n, ctx.m, ctx.table
            hit = first.setdefault(key, ctx)
            assert ctx.relmaps is hit.relmaps and ctx.images is hit.images, key
        assert len(first) < len(contexts)
        assert len({id(ctx.relmaps) for ctx in first.values()}) == len(first)
        for (n, m, table), ctx in first.items():
            sizes = claims._SizeTables(n)
            fresh = claims.GroupContext(sizes, ctx.vsizes, table, get_claim(cid), sizes.handles())
            assert ctx.images == fresh.images
            assert ctx.contributions == fresh.contributions
            assert _relations(ctx) == _relations(fresh)


def test_maps_into_two_sizes_of_v_share_no_tables(monkeypatch):
    # T31-refl takes every map, so a table t0 that uses fewer values than m
    # comes back for each larger m, with other contributions and f(R)
    from roughmap import claims

    claims.size_tables.cache_clear()
    by_table = {}
    for ctx in _contexts_of(monkeypatch, "T31-refl", 4, 3):
        by_table.setdefault((ctx.n, ctx.table), {}).setdefault(ctx.m, ctx)
    assert any(len(by_m) == 3 for by_m in by_table.values())
    for by_m in by_table.values():
        assert len({id(ctx.relmaps) for ctx in by_m.values()}) == len(by_m)
        assert len({id(ctx.contributions) for ctx in by_m.values()}) == len(by_m)
    # the memo keeps the maps into every size of V, each under its own key,
    # and each entry is what fresh size tables build for that map
    sizes = claims.size_tables(4)
    assert set(sizes.maps) == {(m, t) for m in range(1, 4) for t in iter_canonical_tables(4, m)}
    for (m, table), (fibers, surjective, images, contributions, relmaps) in sizes.maps.items():
        fresh_sizes = claims._SizeTables(4)
        claim = get_claim("T31-refl")
        fresh = claims.GroupContext(fresh_sizes, claims.size_tables(m), table, claim, fresh_sizes.handles())
        assert (fibers, surjective) == (fresh.fibers, fresh.surjective), (m, table)
        assert images == fresh.images and contributions == fresh.contributions, (m, table)
        assert [(rel.packed, rel.flags) for rel in relmaps] == _relations(fresh), (m, table)


def test_claims_of_one_process_share_the_group_tables_of_their_maps(monkeypatch):
    # the memo of maps lives as long as the size tables, so once verify T31
    # has built every surjection's tables up to (5, 3), a falsify and a
    # subset claim at the same bounds build none, and report what they
    # report on fresh tables
    from roughmap import claims

    sweeps = [(falsify, "L31-2-inc"), (verify, "T41-1")]
    fresh = []
    for run, cid in sweeps:
        claims.size_tables.cache_clear()
        fresh.append(_settled_doc(run(cid, 5, 3, workers=1)))
    claims.size_tables.cache_clear()
    verify("T31", 5, 3, workers=1)
    builds = []
    real = claims.GroupContext._build

    def counted(ctx):
        builds.append((ctx.n, ctx.m, ctx.table))
        return real(ctx)

    monkeypatch.setattr(claims.GroupContext, "_build", counted)
    try:
        for (run, cid), want in zip(sweeps, fresh):
            assert _settled_doc(run(cid, 5, 3, workers=1)) == want, cid
            assert builds == [], cid
    finally:
        claims.size_tables.cache_clear()


def test_contexts_on_direct_tables_share_nothing(monkeypatch):
    from roughmap import claims

    claims.size_tables.cache_clear()  # else sizes keep the stored form they had
    monkeypatch.setattr(claims, "_TABLE_MAX_N", 0)
    try:
        contexts = _contexts_of(monkeypatch, "T31-refl", 4, 3)
    finally:
        claims.size_tables.cache_clear()
    assert len({ctx.table for ctx in contexts}) < len(contexts)
    assert len({id(ctx.relmaps) for ctx in contexts}) == len(contexts)
    assert len({id(ctx.images) for ctx in contexts}) == len(contexts)


def test_falsify_scans_canonical_maps_only():
    # the falsify stream uses one representative per codomain relabeling
    report = falsify("T31", max_u=4, max_v=3)
    maps = sum(
        sum(1 for _ in iter_canonical_surjections(n, m))
        for n in range(1, 5)
        for m in range(1, min(n, 3) + 1)
    )
    assert report.groups == maps
    assert report.instances == sum(
        bell(n) * sum(1 for _ in iter_canonical_surjections(n, m))
        for n in range(1, 5)
        for m in range(1, min(n, 3) + 1)
    )
    # no counterexample this small
    assert not report.found


def test_t31_transitivity_falls_at_six():
    report = falsify("T31", max_u=6, max_v=3)
    assert report.found
    raw = report.first_counterexample
    assert raw.n == 6 and raw.m == 3
    assert evaluate("T31", raw.to_instance()).outcome is Outcome.FAILS


@pytest.mark.parametrize("run", [falsify, verify])
def test_failure_cap_below_one_is_rejected(run):
    # a zero cap would sweep on past the first failure and report none
    # (falsify has no cap: it stops at its first failure); a worker count
    # below one is an error, not a request for one worker
    bad = [{"workers": 0}, {"workers": -3}]
    if run is verify:
        bad += [{"max_failures": 0}, {"max_failures": -1}]
    # a bound, worker count or cap that is not an int (bool included) is
    # rejected before any sweep starts, not recorded or passed on
    for value in (True, 2.0, "2"):
        bad += [{"max_u": value}, {"max_v": value}, {"workers": value}]
        if run is verify:
            bad += [{"max_failures": value}]
    for kwargs in bad:
        args = {"max_u": 5, "max_v": 3, **kwargs}
        with pytest.raises(ValueError):
            run("T41-1", **args)


def test_workers_capped_at_cpu_count(monkeypatch):
    # a pool forks every worker on its first submit, so the count is
    # lowered before the pool is made
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    report = verify("T31", max_u=3, workers=3)
    assert report.workers == 1


def _verify_in_child(conn):
    report = verify("T31", 6, 3, workers=2)
    pool = search._pool
    conn.send((report.tally, report.groups, report.failures, pool is not None and pool[1] == os.getpid()))


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_forked_child_starts_its_own_pool():
    import multiprocessing

    # T31 at (6, 3) outgrows the first task, which runs in the caller
    expected = verify("T31", 6, 3, workers=1)
    verify("T31", 6, 3, workers=2)
    assert search._pool is not None and search._pool[1] == os.getpid()
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_verify_in_child, args=(sender,))
    child.start()
    try:
        # on the parent's executor the child would wait forever
        assert receiver.poll(60)
        got = receiver.recv()
        # the child shuts its own pool down on exit
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    assert got == (expected.tally, expected.groups, expected.failures, True)


def test_import_leaves_pool_modules_unloaded():
    # the pool's modules cost more to import than roughmap itself
    src = os.path.dirname(os.path.dirname(search.__file__))
    code = (
        "import roughmap, sys; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_that_ends_in_its_first_task_starts_no_pool():
    # a falsify that stops in its first task, and a verify of one task
    src = os.path.dirname(os.path.dirname(search.__file__))
    code = (
        "import sys; from roughmap import falsify, search, verify; "
        "report = falsify('T41-1', 5, 3, workers=2); verify('T31', 4, workers=2); "
        "print(report.found, search._pool, 'concurrent.futures.process' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "None", "False"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_pool_shares_no_memory_with_its_workers():
    # a task tuple carries everything its worker reads: a sweep that
    # reaches the pool makes no shared value, so it imports no ctypes
    src = os.path.dirname(os.path.dirname(search.__file__))
    code = (
        "import sys; from roughmap import search, verify; "
        "verify('T31', 6, 3, workers=2); "
        "print(search._pool is not None, "
        "[m for m in ('ctypes', 'multiprocessing.sharedctypes') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "[]"]


def test_failures_past_the_cap_build_no_witness(monkeypatch):
    from roughmap import claims

    built = []
    real = claims.subset_not_included

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(claims, "subset_not_included", counted)
    report = verify("T41-1", 5, 3, workers=1, max_failures=3)
    assert report.tally.fails == 10176
    assert len(built) == len(report.failures) == 3
    # the kept failures carry the witnesses evaluate() gives
    for raw, witness in report.failures:
        assert evaluate("T41-1", raw.to_instance()).witness == witness
    assert len(built) == 6


def test_trace_counts_one_evaluation_per_instance_and_one_context_per_group(monkeypatch):
    # perfbench's --trace 1 gate: evaluations = instances, contexts = groups;
    # and on fresh size tables a verify computes f(R) of every partition
    # once per distinct (n, m, t0), a falsify once per group: the spies
    # count the partitions the build computes f(R) for and the tables it
    # builds them on
    from roughmap import claims

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from tracing import Tracer, installed

    computed, built = [], []
    relmaps, build = claims.GroupContext._relmaps, claims.GroupContext._build

    def counted_relmaps(ctx, contributions, partitions):
        out = relmaps(ctx, contributions, partitions)
        computed.append(len(out))
        return out

    def counted_build(ctx):
        built.append((ctx.n, ctx.m, ctx.table))
        return build(ctx)

    monkeypatch.setattr(claims.GroupContext, "_relmaps", counted_relmaps)
    monkeypatch.setattr(claims.GroupContext, "_build", counted_build)

    cases = [
        (verify, "T31", 6, 3, 27_138),
        (verify, "L31-2-inc", 5, 2, 977),
        (verify, "T41-1", 4, 3, 240),
        (falsify, "T31", 6, 4, 12_651),
        (verify, "T42-1", 5, 5, 75),
        (falsify, "T42-1", 5, 3, 8),
    ]
    streams = ("iter_surjections", "iter_canonical_surjections", "iter_tables", "iter_canonical_tables")
    try:
        for run, cid, max_u, max_v, partitions in cases:
            claims.size_tables.cache_clear()
            computed.clear()
            built.clear()
            tracer = Tracer()
            with installed(tracer):
                report = run(cid, max_u, max_v, workers=1)
            assert tracer.calls["claims.evaluate_raw"] == report.instances
            assert tracer.calls["claims.GroupContext"] == report.groups
            # every group's table comes from a traced stream, bijections too
            assert sum(tracer.counters[f"enumeration.{fn}.yielded"] for fn in streams) == report.groups
            assert sum(computed) == partitions
            assert len(set(built)) == len(built)
            if run is verify:
                # the maps are surjective, bijections onto m = n; the
                # canonical ones n -> m are the rgs of m blocks
                bijective = get_claim(cid).map_constraint == "bijective"
                slices = [(n, m) for n in range(1, max_u + 1) for m in range(n if bijective else 1, min(n, max_v) + 1)]
                assert partitions == sum(bell(n) * stirling2(n, m) for n, m in slices)
    finally:
        # per-size tables built under the trace hold its kernel wrappers
        claims.size_tables.cache_clear()


def test_sweep_calls_the_evaluator_or_the_traced_name_once_per_instance(monkeypatch):
    # the sweep loop calls the claim's evaluator itself, or, when
    # perfbench's tracer has rebound search.evaluate_raw, the rebound name;
    # either way every instance is evaluated once, never twice, and the
    # reports are equal, witnesses and the first counterexample included
    from collections import Counter

    from roughmap import claims

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from tracing import Tracer, installed

    calls = Counter()

    def counted(cid, fn):
        def evaluator(ctx, h1, h2, xmask):
            calls[cid] += 1
            return fn(ctx, h1, h2, xmask)

        return evaluator

    for cid, claim in list(claims.REGISTRY.items()):
        monkeypatch.setitem(claims.REGISTRY, cid, claim._replace(evaluator=counted(cid, claim.evaluator)))
    # a verify rebuilds the witness of a failure on a relabeled table with
    # evaluate(), which calls the evaluator once more
    rebuilt = []

    def rebuild(claim, inst):
        rebuilt.append(inst)
        return evaluate(claim, inst)

    monkeypatch.setattr(search, "evaluate", rebuild)

    def sweep(run, cid, max_u, max_v):
        calls.clear()
        rebuilt.clear()
        report = run(cid, max_u, max_v, workers=1)
        assert calls[cid] == report.instances + len(rebuilt)
        assert sum(calls.values()) == calls[cid]
        return report

    # every claim on the stored tables, and one group of sizes on the
    # direct tables (n = 8)
    cases = [(verify, cid, 4, 3) for cid in REGISTRY] + [(falsify, cid, 5, 3) for cid in REGISTRY]
    cases.append((verify, "T31-refl", 8, 1))
    try:
        for run, cid, max_u, max_v in cases:
            plain = sweep(run, cid, max_u, max_v)
            tracer = Tracer()
            with installed(tracer):
                traced = sweep(run, cid, max_u, max_v)
            assert tracer.calls["claims.evaluate_raw"] == traced.instances
            assert traced.tally == plain.tally
            assert traced.groups == plain.groups
            assert traced.ill_typed_reason == plain.ill_typed_reason
            assert traced.failures == plain.failures
            assert traced.first_counterexample == plain.first_counterexample
    finally:
        # per-size tables built under the trace hold its kernel wrappers
        claims.size_tables.cache_clear()


def test_pinned_sweeps_pass_the_benchmark_check(monkeypatch):
    # the benchmark's sweeps that have no committed report are pinned in
    # perfbench/workloads.PINS (tallies, groups, first counterexample and a
    # digest of the report document, witnesses and failure list included);
    # perfbench/checks.check_sweep compares a sweep with its pin
    import json

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from checks import check_sweep, load_evidence
    from workloads import PINS, WORKLOADS

    pinned = {}
    for workload in WORKLOADS.values():
        for sweep in workload.sweeps + (workload.refute or ()):
            if sweep.name in PINS:
                pinned[sweep.name] = sweep, workload.workers
    assert sorted(pinned) == sorted(PINS)
    problems = []
    for sweep, workers in pinned.values():
        run = verify if sweep.mode == "verify" else falsify
        report = run(sweep.claim, sweep.max_u, sweep.max_v, workers=workers)
        text = json.dumps(report_doc(report), indent=2, ensure_ascii=False)
        problems += check_sweep(sweep, report, text, load_evidence([sweep], os.path.join(root, "reports")))
    assert problems == []
