import os

import pytest

from roughmap import Outcome, REGISTRY, evaluate, falsify, verify
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


@pytest.mark.parametrize("cid", ["T41-1", "L31-2-inc", "T31-refl"])
def test_worker_count_does_not_change_results(cid):
    reports = [falsify(cid, max_u=5, max_v=3, workers=w) for w in (1, 2, 8)]
    first = reports[0]
    for other in reports[1:]:
        assert other.tally == first.tally
        assert other.first_counterexample == first.first_counterexample
        assert other.witness == first.witness
        assert other.groups == first.groups


def test_verify_worker_count_does_not_change_failures():
    reports = [verify("T43-1", max_u=4, max_v=2, workers=w) for w in (1, 2, 8)]
    first = reports[0]
    for other in reports[1:]:
        assert other.tally == first.tally
        assert other.failures == first.failures


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
    for cap in (0, -1):
        with pytest.raises(ValueError):
            run("T41-1", 5, 3, max_failures=cap)


def test_workers_capped_at_cpu_count(monkeypatch):
    # a pool forks every worker on its first submit, so the count is
    # lowered before the pool is made
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    report = verify("T31", max_u=3, workers=3)
    assert report.workers == 1
    monkeypatch.setenv("ROUGHMAP_WORKERS", "3")
    assert verify("T31", max_u=3).workers == 1
