import os
import subprocess
import sys

import pytest

from roughmap import Outcome, REGISTRY, evaluate, falsify, get_claim, search, verify
from roughmap.docio import report_doc
from roughmap.enumeration import (
    bell,
    iter_canonical_surjections,
    iter_rgs,
    surjection_count,
)
from roughmap.search import default_workers

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


def _verify_on_each_worker_count():
    reports = [verify("T43-1", max_u=4, max_v=2, workers=w) for w in (1, 2, 8)]
    first = reports[0]
    for other in reports[1:]:
        assert other.tally == first.tally
        assert other.failures == first.failures
    # 852 groups in several tasks, and 2,160 failures against a cap of 20
    docs = []
    for w in (1, 2):
        doc = report_doc(verify("T31", 6, 3, workers=w))
        for key in ("wall_time_s", "workers", "tool"):
            del doc[key]
        docs.append(doc)
    assert docs[0]["groups"] == 852 and docs[0]["tallies"]["fails"] == 2160
    assert docs[1] == docs[0]


def test_verify_worker_count_does_not_change_failures():
    _verify_on_each_worker_count()


def test_verify_worker_count_does_not_change_failures_in_small_tasks(monkeypatch):
    monkeypatch.setattr(search, "TASK_INSTANCES", SMALL_TASK)
    _verify_on_each_worker_count()


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


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("ROUGHMAP_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("ROUGHMAP_WORKERS", "4")
    assert default_workers() == 4
    monkeypatch.setenv("ROUGHMAP_WORKERS", "junk")
    assert default_workers() == 1


@pytest.mark.parametrize("run", [falsify, verify])
def test_failure_cap_below_one_is_rejected(run):
    # a zero cap would sweep on past the first failure and report none
    # (falsify has no cap: it stops at its first failure); a worker count
    # below one is an error, not a request for one worker
    bad = [{"workers": 0}, {"workers": -3}]
    if run is verify:
        bad += [{"max_failures": 0}, {"max_failures": -1}]
    for kwargs in bad:
        with pytest.raises(ValueError):
            run("T41-1", 5, 3, **kwargs)


def test_workers_capped_at_cpu_count(monkeypatch):
    # a pool forks every worker on its first submit, so the count is
    # lowered before the pool is made
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    report = verify("T31", max_u=3, workers=3)
    assert report.workers == 1
    monkeypatch.setenv("ROUGHMAP_WORKERS", "3")
    assert verify("T31", max_u=3).workers == 1


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
    # perfbench's --trace 1 gate: evaluations = instances, contexts = groups
    from roughmap import claims

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from tracing import Tracer, installed

    try:
        for cid, max_u, max_v in [("T31", 4, 3), ("L31-2-inc", 4, 2), ("T41-1", 4, 3)]:
            tracer = Tracer()
            with installed(tracer):
                report = verify(cid, max_u, max_v, workers=1)
            assert tracer.calls["claims.evaluate_raw"] == report.instances
            assert tracer.calls["claims.GroupContext"] == report.groups
    finally:
        # per-size tables built under the trace hold its kernel wrappers
        claims._stored_tables.cache_clear()
        claims._listed_relations.cache_clear()
        claims._listed_blocks.cache_clear()
