import json
import os
import pathlib
import sys

import pytest

from roughmap import REGISTRY, search
from roughmap.cli import _exit_code, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
MONOTONICITY = ROOT / "instances" / "monotonicity.json"
APPROXIMATION = ROOT / "instances" / "approximation.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_replay_passes(capsys):
    code, out, _ = run(capsys, "replay-paper")
    assert code == 0
    assert "replay: 22/22 checks passed" in out
    assert out.count("PASS") == 22
    assert "FAIL" not in out
    # key frozen strings from the two worked instances
    assert "{(a, a), (b, b), (a, b), (b, a)}" in out
    assert "∅" in out


def test_list_claims_prints_whole_registry(capsys):
    code, out, _ = run(capsys, "list-claims")
    assert code == 0
    for cid in REGISTRY:
        assert cid in out


def test_count_commands(capsys):
    code, out, _ = run(capsys, "count", "--partitions", "7")
    assert code == 0 and "877" in out
    code, out, _ = run(capsys, "count", "--surjections", "6", "2")
    assert code == 0 and "62" in out
    code, out, _ = run(capsys, "count", "--subsets", "5")
    assert code == 0 and "32" in out
    code, out, _ = run(capsys, "count", "--surjections", "2", "3")
    assert code == 0
    assert "0" in out and "no surjections onto a larger codomain" in out
    for argv in (("--partitions", "0"), ("--surjections", "3", "0"), ("--subsets", "0")):
        code, out, err = run(capsys, "count", *argv)
        assert code == 2 and out == ""
        assert "must be at least 1" in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="Python before 3.10.7 converts an int of any length to text",
)
def test_count_too_long_to_print_is_an_input_error(capsys):
    # 2**14300 and 3**10000 have more digits than Python turns into text by
    # default; S(2000, 3) is found row by row, with no recursion limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (("--subsets", "14300"), ("--surjections", "10000", "3")):
            code, out, err = run(capsys, "count", *argv)
            assert (code, out) == (2, "")
            assert err.count("\n") == 1 and "more than 4300 digits" in err
        code, out, err = run(capsys, "count", "--surjections", "2000", "3")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out.startswith("surjections 2000 -> 3: 1747871251722651609659974619")


def test_falsify_exit_codes(capsys):
    # refuted claim, counterexample findable: expected outcome
    code, out, _ = run(capsys, "falsify", "L31-1-fwd", "--max-u", "4", "--max-v", "2")
    assert code == 0
    assert "counterexample found" in out
    # refuted claim, bounds too small: unexpected
    code, out, _ = run(capsys, "falsify", "L31-1-fwd", "--max-u", "2", "--max-v", "2")
    assert code == 1
    assert "no counterexample" in out
    # open claim, bounds exhausted: "none found here"
    code, out, _ = run(capsys, "falsify", "T31", "--max-u", "4", "--max-v", "3")
    assert code == 3
    # proved claim, exhausted: expected
    code, out, _ = run(capsys, "falsify", "T42-1", "--max-u", "3", "--max-v", "3")
    assert code == 0
    # ill-typed claim, exhausted: expected
    code, out, _ = run(capsys, "falsify", "L32", "--max-u", "3", "--max-v", "2")
    assert code == 0
    assert "ill-typed" in out


def test_falsify_open_claim_that_fails(capsys):
    code, out, _ = run(capsys, "falsify", "L31-3-join", "--max-u", "4", "--max-v", "2")
    assert code == 0
    assert "counterexample found" in out


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "T42-1", "--max-u", "3")
    assert code == 0
    assert "zero failures" in out
    # failures on a refuted claim are the expected outcome
    code, out, _ = run(capsys, "verify", "T41-1", "--max-u", "4", "--max-v", "2")
    assert code == 0
    assert "fails" in out
    # failures on an open claim are reported as a finding
    code, out, _ = run(capsys, "verify", "L31-3-join", "--max-u", "4", "--max-v", "2")
    assert code == 1
    # bounds and worker counts below one are usage errors
    for flag in ("--max-u", "--max-v", "--workers"):
        code, _, err = run(capsys, "verify", "T31", "--max-u", "3", flag, "-3")
        assert code == 2
        assert "must be at least 1" in err


# the README's exit-code table, row by row: (mode, found) -> code per
# expected status
EXIT_TABLE = {
    ("falsify", True): {"refuted": 0, "open": 0, "proved": 1, "ill-typed": 1},
    ("falsify", False): {"refuted": 1, "open": 3, "proved": 0, "ill-typed": 0},
    ("verify", True): {"refuted": 0, "open": 1, "proved": 1, "ill-typed": 1},
    ("verify", False): {"refuted": 0, "open": 0, "proved": 0, "ill-typed": 0},
}


@pytest.mark.parametrize(
    "mode, found, status, code",
    [(mode, found, status, code) for (mode, found), row in EXIT_TABLE.items() for status, code in row.items()],
)
def test_exit_code_follows_the_readme_table(mode, found, status, code):
    assert _exit_code(mode, found, status) == code


def test_unknown_claim_prints_registry(capsys):
    code, _, err = run(capsys, "falsify", "T99", "--max-u", "3", "--max-v", "3")
    assert code == 2
    for cid in REGISTRY:
        assert cid in err


def test_json_report_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "falsify", "T41-1", "--max-u", "4", "--max-v", "2",
        "--json", str(target),
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema"] == "relmap-report/1"
    assert doc["outcome"] == "counterexample-found"
    assert doc["first_counterexample"]["claim"] == "T41-1"


def test_json_write_failure_is_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "falsify", "T41-1", "--max-u", "3", "--max-v", "2",
        "--json", str(tmp_path / "no" / "dir.json"),
    )
    assert code == 2
    assert "roughmap:" in err


def test_workers_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "T42-1", "--max-u", "4", "--workers", "2"
    )
    assert code == 0
    assert "workers 2" in out


def test_eval_instance_match(tmp_path, capsys):
    code, out, _ = run(capsys, "eval", "--input", str(MONOTONICITY))
    assert code == 0
    assert "verdict: fails" in out
    assert "matches recorded outcome" in out


def test_eval_instance_mismatch(tmp_path, capsys):
    doc = json.loads(MONOTONICITY.read_text(encoding="utf-8"))
    doc["expected_outcome"] = "holds"
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", "--input", str(p))
    assert code == 1
    assert "MISMATCH" in out


def test_eval_show_sections(capsys):
    code, out, _ = run(
        capsys, "eval", "--input", str(APPROXIMATION),
        "--show", "relmap,approx,degrees",
    )
    assert code == 0
    assert "f(R) = {(a, a), (b, b), (a, b), (b, a)}" in out
    assert "apr_R X = {1}" in out
    assert "apr̄_R X = {1}" in out
    assert "apr_f(R) f(X) = ∅" in out
    assert "degrees" in out


def test_eval_without_claim_just_describes(tmp_path, capsys):
    doc = json.loads(MONOTONICITY.read_text(encoding="utf-8"))
    del doc["claim"]
    del doc["expected_outcome"]
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "eval", "--input", str(p), "--show", "relmap")
    assert code == 0
    assert "f(R1)" in out


def test_eval_missing_file(capsys):
    code, _, err = run(capsys, "eval", "--input", "/nonexistent/x.json")
    assert code == 2


def test_eval_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run(capsys, "eval", "--input", str(p))
    assert code == 2


def test_eval_invalid_instance(tmp_path, capsys):
    doc = json.loads(MONOTONICITY.read_text(encoding="utf-8"))
    doc["map"]["1"] = "zzz"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--input", str(p))
    assert code == 2


@pytest.mark.parametrize("field, value", [("claim", ["T41-1"]), ("expected_outcome", "maybe"), ("expected_outcome", 3)])
def test_eval_rejects_a_bad_claim_or_recorded_outcome(tmp_path, capsys, field, value):
    # a claim id that is no string, and a recorded outcome that is none of
    # the four, are input errors, not a traceback or a MISMATCH
    doc = json.loads(MONOTONICITY.read_text(encoding="utf-8"))
    doc[field] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--input", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"eval: {field}: ") and err.count("\n") == 1


def test_eval_report_reruns_counterexample(tmp_path, capsys):
    target = tmp_path / "report.json"
    run(
        capsys, "falsify", "L31-2-inc", "--max-u", "4", "--max-v", "2",
        "--json", str(target),
    )
    code, out, _ = run(capsys, "eval", "--input", str(target))
    assert code == 0
    assert "verdict: fails" in out
    assert "matches recorded outcome" in out


def test_eval_clean_report_has_nothing_to_check(tmp_path, capsys):
    target = tmp_path / "report.json"
    run(capsys, "verify", "T42-1", "--max-u", "3", "--json", str(target))
    code, out, _ = run(capsys, "eval", "--input", str(target))
    assert code == 0
    assert "nothing to re-check" in out


def test_no_command_shows_usage(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    from roughmap import cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "verify", interrupted)
    code, out, err = run(capsys, "verify", "T31", "--max-u", "3")
    assert code == 130
    assert err == "roughmap: interrupted\n"
    assert "Traceback" not in out + err


_CALLER = os.getpid()
_real_run_task = search._run_task


def _die_in_worker(args):
    # the first task of a sweep runs in the caller, the rest in pool workers
    if os.getpid() != _CALLER:
        os._exit(1)
    return _real_run_task(args)


def _pools_started(monkeypatch) -> list:
    """The worker count of every pool a sweep asks for from now on."""
    started = []
    get_pool = search._get_pool
    monkeypatch.setattr(search, "_get_pool", lambda workers: started.append(workers) or get_pool(workers))
    return started


# T31 at (6, 3) outgrows the first task, so it reaches the pool; T31 is
# open, so its failures exit 1
POOL_SWEEP = ("verify", "T31", "--max-u", "6", "--max-v", "3", "--workers", "2")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_worker_crash_exits_4_without_traceback(capsys, monkeypatch):
    # pool workers see the module as it was when their pool started, so a
    # pool left by an earlier test must go before the patch
    search._drop_pool()
    monkeypatch.setattr(search, "_run_task", _die_in_worker)
    code, out, err = run(capsys, *POOL_SWEEP)
    assert code == 4
    assert err == "roughmap: a search worker process died\n"
    assert "Traceback" not in out + err
    # the crashed pool was dropped: the next sweep gets a new one
    monkeypatch.undo()
    started = _pools_started(monkeypatch)
    code, out, err = run(capsys, *POOL_SWEEP)
    assert code == 1
    assert err == ""
    assert started == [2]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_main_shuts_down_the_pool_it_used(capsys, monkeypatch):
    # a pool left to the exit hooks can race its own manager thread there
    # and print a traceback after the command's output
    started = _pools_started(monkeypatch)
    code, _, err = run(capsys, *POOL_SWEEP)
    assert (code, err, started) == (1, "", [2])
    assert search._pool is None
