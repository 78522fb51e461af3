"""Acceptance gate: one test per shipped guarantee, at its stated budget.

Run with -v to get one pass/fail line per criterion.  Budgets are wall
times on one desktop core unless a workers flag says otherwise.
"""

import ast
import importlib.util
import json
import pathlib
import time
from fractions import Fraction

from roughmap import (
    Outcome,
    Partition,
    Subset,
    SurjMap,
    Universe,
    approximations,
    degree_table,
    evaluate,
    falsify,
    fiber_condition,
    boundary,
    parse_instance_doc,
    relmap,
    search,
    verify,
)
from roughmap.docio import emit_instance_doc, raw_to_instance, report_doc, settled
from roughmap.enumeration import (
    bell,
    iter_rgs,
    iter_surjections,
    iter_tables,
    stirling2,
    surjection_count,
)
from roughmap.replay import approximation_instance, monotonicity_instance, replay_examples

import oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent

def committed_report(name):
    return json.loads((ROOT / "reports" / name).read_text(encoding="utf-8"))


def timed(fn, budget_s):
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"took {elapsed:.3f}s, budget {budget_s}s"
    return out, elapsed


def test_c1_monotonicity_instance_replays_bit_exactly():
    # warm the import path once, then hold the replay to its 10 ms budget
    replay_examples()
    report, _ = timed(replay_examples, 0.010)
    checks = {c.name: c for c in report.checks if c.instance == "monotonicity"}
    assert checks["f(R1)"].actual == "{(a, a), (b, b), (a, b), (b, a)}"
    assert checks["f(R2)"].actual == "{(a, a), (b, b)}"
    assert checks["R1 ⊆ R2"].actual == "true"
    assert checks["f(R1) ⊆ f(R2)"].actual == "false"
    assert checks["f(R2) ⊆ f(R1)"].actual == "true"
    assert checks["f(R1 ∩ R2) = f(R1)"].actual == "true"
    assert checks["f(R1 ∩ R2) ⫆ f(R1) ∩ f(R2)"].actual == "true"
    assert checks["R1 ∪ R2 is an equivalence"].actual == "true"
    assert checks["R1 ∪ R2 = R2"].actual == "true"
    assert checks["f(R1 ∪ R2) ⊇ f(R1) ∪ f(R2)"].actual == "false"
    assert all(c.ok for c in checks.values())


def test_c2_approximation_instance_replays_bit_exactly():
    replay_examples()
    report, _ = timed(replay_examples, 0.010)
    checks = {c.name: c for c in report.checks if c.instance == "approximation"}
    assert checks["apr_R X"].actual == "{1}"
    assert checks["apr̄_R X"].actual == "{1}"
    assert checks["f(X)"].actual == "{a}"
    assert checks["f(R)"].actual == "{(a, a), (b, b), (a, b), (b, a)}"
    assert checks["apr_f(R) f(X)"].actual == "∅"
    assert checks["apr̄_f(R) f(X)"].actual == "{a, b}"
    for cid in ("T41-1", "T41-2", "T43-1", "T43-2"):
        assert checks[f"{cid} verdict"].actual == "fails"
    assert all(c.ok for c in checks.values())


def test_replayed_instances_are_the_bundled_documents():
    # replay builds its two instances in code; they must be the ones
    # instances/*.json ships
    for build, name in ((monotonicity_instance, "monotonicity"), (approximation_instance, "approximation")):
        doc = json.loads((ROOT / "instances" / f"{name}.json").read_text(encoding="utf-8"))
        want, got = parse_instance_doc(doc).instance, build()
        assert got.f.domain.labels == want.f.domain.labels
        assert got.f.codomain.labels == want.f.codomain.labels
        assert got.f.table == want.f.table
        assert [p.rgs for p in got.partitions] == [p.rgs for p in want.partitions]
        got_x, want_x = (None if inst.x is None else inst.x.mask for inst in (got, want))
        assert got_x == want_x


def test_c3_falsification_sweep_with_revalidating_witnesses():
    refuted = [
        "L31-1-fwd",
        "L31-1-bwd",
        "L31-2-inc",
        "L31-3-inc",
        "T41-1",
        "T41-2",
        "T43-1",
        "T43-2",
    ]

    def sweep():
        out = {}
        for cid in refuted:
            out[cid] = falsify(cid, max_u=6, max_v=3)
        return out

    reports, _ = timed(sweep, 60.0)
    for cid, report in reports.items():
        assert report.found, cid
        raw = report.first_counterexample
        # the witness re-validates in process and through the document path
        verdict = evaluate(cid, raw.to_instance())
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness == report.witness
        doc = emit_instance_doc(raw_to_instance(raw), claim_id=cid)
        again = parse_instance_doc(doc)
        assert evaluate(cid, again.instance).outcome is Outcome.FAILS


def test_c4_bijective_equalities_hold_on_the_full_space():
    def run():
        return verify("T42-1", max_u=5), verify("T42-2", max_u=5)

    (r1, r2), _ = timed(run, 60.0)
    for r in (r1, r2):
        assert r.instances == 205698
        assert r.tally.fails == 0
        assert r.tally.holds == r.instances
        assert r.failures == []


def test_c5_difference_is_uniformly_ill_typed_and_reflexivity_iff_surjective():
    r = verify("L32", max_u=4, max_v=4)
    assert r.tally.ill_typed == r.instances
    assert r.tally.holds == 0 and r.tally.fails == 0
    assert r.ill_typed_reason == "difference-not-reflexive"

    # the biconditional sweeps every map, surjective or not
    r = verify("T31-refl", max_u=5, max_v=5)
    assert r.instances == sum(
        bell(n) * sum(m**n for m in range(1, 6)) for n in range(1, 6)
    )
    assert r.tally.fails == 0
    assert r.tally.holds == r.instances


def test_c6_open_transitivity_question_resolves_at_desk_scale():
    report, _ = timed(lambda: verify("T31", max_u=6, max_v=4), 600.0)
    assert report.instances == 462178
    # the sweep lands on a definitive answer: counterexamples exist at n = 6
    assert report.tally.fails == 2160
    assert verify("T31", max_u=5, max_v=4).tally.fails == 0
    # embedded evidence re-validates through the document path
    doc = report_doc(report)
    assert doc["outcome"] == "failures-found"
    # the committed evidence for this sweep is regenerated here, not in c9
    assert settled(doc) == settled(committed_report("t31-verify-6-4.json"))
    fc = parse_instance_doc(doc["first_counterexample"])
    verdict = evaluate("T31", fc.instance)
    assert verdict.outcome is Outcome.FAILS
    assert verdict.witness["condition"] == "transitivity"
    for entry in doc["failures"]:
        parsed = parse_instance_doc(entry["instance"])
        assert evaluate("T31", parsed.instance).outcome is Outcome.FAILS


def test_c7_enumeration_counts_match_independent_formulas():
    for n in range(1, 8):
        assert sum(1 for _ in iter_rgs(n)) == bell(n) == oracles.bell_binomial(n)
    for n in range(1, 7):
        for m in range(1, n + 1):
            got = sum(1 for _ in iter_surjections(n, m))
            assert got == surjection_count(n, m) == oracles.surj_ie(n, m)
            assert stirling2(n, m) == oracles.stirling_ie(n, m)
    assert bell(7) == 877
    assert surjection_count(6, 2) == 62 == 2**6 - 2


def test_c8_properties_hold_exhaustively_up_to_five(monkeypatch):
    # relmap symmetry, reflexivity iff surjectivity, and the degree-one
    # collapse, over every map (surjective or not) and every partition
    for n in range(1, 6):
        u = Universe(n)
        parts = [Partition(u, rgs) for rgs in iter_rgs(n)]
        for m in range(1, 6):
            v = Universe(m)
            for table in iter_tables(n, m):
                f = SurjMap(u, v, table)
                for p in parts:
                    r = relmap(f, p)
                    c = r.classify()
                    assert c.symmetric
                    assert c.reflexive == f.surjective
                    degs = degree_table(f, p)
                    assert fiber_condition(f, p) == all(d.is_one for d in degs)
                    if f.bijective:
                        want = {
                            (table[x], table[y]) for x, y in p.to_relation().pairs()
                        }
                        assert set(r.pairs()) == want

    # approximation sandwich and duality over every partition and subset
    for n in range(1, 6):
        u = Universe(n)
        for rgs in iter_rgs(n):
            p = Partition(u, rgs)
            for mask in range(1 << n):
                x = Subset(u, mask)
                lo, hi = approximations(p, x)
                assert lo <= x <= hi
                lo2, hi2 = approximations(p, x.complement())
                assert lo == hi2.complement()
                assert boundary(p, x) == hi - lo

    # partition -> relation -> partition is the identity
    for n in range(1, 6):
        u = Universe(n)
        for rgs in iter_rgs(n):
            p = Partition(u, rgs)
            assert p.to_relation().to_partition().rgs == rgs

    # first witness and tallies do not depend on the worker count, whether
    # the first counterexample lies in the first task of the sweep, which
    # runs in the caller, or (with tiny tasks) in a pool task
    for task_instances in (search.TASK_INSTANCES, 100):
        monkeypatch.setattr(search, "TASK_INSTANCES", task_instances)
        for cid in ("T41-1", "L31-2-inc"):
            reports = [falsify(cid, max_u=5, max_v=3, workers=w) for w in (1, 2, 8)]
            for other in reports[1:]:
                assert other.tally == reports[0].tally
                assert other.first_counterexample == reports[0].first_counterexample
                assert other.witness == reports[0].witness


def test_committed_t31_tallies_match_the_oracle_by_map_type():
    # the oracle walks one sorted table per map type, on sets and Fractions
    for name, want in (("t31-verify-5-4.json", (23089, 0)), ("t31-verify-6-4.json", (460018, 2160))):
        doc = committed_report(name)
        bounds = doc["bounds"]
        holds, fails = oracles.naive_t31_tally(bounds["max_u"], bounds["max_v"])
        assert (holds, fails) == want, name
        assert doc["tallies"] == {"holds": holds, "fails": fails, "ill_typed": 0, "vacuous": 0}, name


def test_committed_t31_refl_tallies_match_the_oracle_by_map_type():
    # every map, onto V or not: a type that uses k of |V| values has
    # |V|!/(|V|-k)! ways to place its fibers before equal sizes are identified
    doc = committed_report("t31-refl-verify-5-5.json")
    holds, fails = oracles.naive_t31_refl_tally(doc["bounds"]["max_u"], doc["bounds"]["max_v"])
    assert (holds, fails) == (246035, 0)
    assert doc["tallies"] == {"holds": holds, "fails": fails, "ill_typed": 0, "vacuous": 0}


def test_committed_t42_tallies_match_the_oracle_by_map_type():
    # the bijections, one map type of weight n!, with lower and upper
    # approximations compared on U and V
    for name, upper in (("t42-1-verify-5-5.json", False), ("t42-2-verify-5-5.json", True)):
        doc = committed_report(name)
        holds, fails, ill_typed = oracles.naive_t42_tally(upper, doc["bounds"]["max_u"], doc["bounds"]["max_v"])
        assert (holds, fails, ill_typed) == (205698, 0, 0), name
        assert doc["tallies"] == {"holds": holds, "fails": fails, "ill_typed": ill_typed, "vacuous": 0}, name


def _evidence_script():
    spec = importlib.util.spec_from_file_location(
        "generate_claim_status", ROOT / "scripts" / "generate_claim_status.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_c9_committed_evidence_regenerates():
    script = _evidence_script()
    docs = {}
    for claim, mode, max_u, max_v in script.RUNS:
        name = script.report_name(claim, mode, max_u, max_v)
        committed = committed_report(name)
        docs.setdefault(claim, []).append(committed)
        if name == "t31-verify-6-4.json":
            continue  # test_c6 runs this sweep and compares it
        run = falsify if mode == "falsify" else verify
        fresh = report_doc(run(claim, max_u=max_u, max_v=max_v))
        assert settled(fresh) == settled(committed), name
    status = (ROOT / "CLAIM_STATUS.md").read_text(encoding="utf-8")
    assert script.status_markdown(docs) == status


def test_c9_regeneration_rewrites_only_reports_that_moved(tmp_path):
    # a rerun on an unchanged engine leaves every report's bytes alone, so
    # a plain diff of reports/ shows only evidence that moved
    script = _evidence_script()
    path = tmp_path / "report.json"
    doc = report_doc(falsify("L31-1-bwd", max_u=3, max_v=2))
    script.write_report(path, doc)
    written = path.read_bytes()
    rerun = dict(doc, wall_time_s=doc["wall_time_s"] + 1.5, workers=2, tool="roughmap 0.0")
    script.write_report(path, rerun)
    assert path.read_bytes() == written
    moved = dict(doc, tallies=dict(doc["tallies"], holds=doc["tallies"]["holds"] + 1))
    script.write_report(path, moved)
    assert settled(json.loads(path.read_text(encoding="utf-8"))) == settled(moved)


def test_c10_readme_quick_start_runs_as_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1]
    block = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    ns = {}
    exec(block, ns)
    stated = []
    # every bare expression carries its value as a trailing comment
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.lineno - 1][node.end_col_offset:].strip()
            assert comment.startswith("#"), comment
            want = ast.literal_eval(comment[1:].strip())
            assert eval(compile(ast.Expression(node.value), "README.md", "eval"), ns) == want
            stated.append(want)
    assert stated == [
        ["1/2", "1/2", "1/1", "1/1"],
        "{(a, a), (b, b), (c, c)}",
        ("{2}", "{1, 2, 3}"),
    ]


def test_sources_parse_as_python_3_10():
    # requires-python is >=3.10: grammar newer than that, such as except*,
    # fails here on any newer interpreter too
    paths = [path for top in ("src", "tests", "scripts", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
