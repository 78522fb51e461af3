"""Command-line surface.

Exit codes: 0 for the command's expected outcome (replay matches, falsify
finds a counterexample, verify finds none), 1 for a surprising outcome,
2 for usage and input errors, 3 when falsify exhausts its bounds on a
claim whose status is open (nothing found here, but nothing was promised),
4 when a search worker process died (the sweep has no result), 130 when
interrupted.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from . import __version__, search
from .approx import approximations
from .claims import Claim, evaluate, get_claim, list_claims
from .docio import (
    ParsedInstance,
    decode_json,
    parse_instance_doc,
    raw_to_instance,
    render_instance_text,
    render_relation,
    render_subset,
    render_witness,
    report_doc,
    write_json,
    REPORT_SCHEMA,
)
from .enumeration import bell, subset_count, surjection_count
from .errors import (
    BadInstanceError,
    ParseError,
    RoughmapError,
    ValidationError,
    WorkerCrashError,
)
from .mappings import degree_table, relmap
from .replay import replay_examples
from .search import SearchReport, falsify, verify


def _at_least_one(text: str) -> int:
    """argparse type for bounds and worker counts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="roughmap",
        description="Relation mappings between finite universes, rough approximations, "
        "and exhaustive claim checking.",
    )
    p.add_argument(
        "--version",
        action="version",
        version=f"roughmap {__version__}",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser(
        "replay-paper",
        help="recompute the bundled worked instances and compare with frozen values",
    )

    ev = sub.add_parser("eval", help="evaluate an instance or report document")
    ev.add_argument("--input", required=True, metavar="FILE")
    ev.add_argument(
        "--show",
        default="relmap,approx,degrees",
        metavar="LIST",
        help="comma list from: relmap, approx, degrees (default: all)",
    )

    for mode, text in (
        ("falsify", "search for the first counterexample to a claim"),
        ("verify", "sweep the whole bounded space for a claim"),
    ):
        se = sub.add_parser(mode, help=text)
        se.add_argument("claim")
        se.add_argument("--max-u", type=_at_least_one, required=True, metavar="N")
        # verify's max |V| defaults to its max |U|
        se.add_argument("--max-v", type=_at_least_one, required=mode == "falsify", metavar="M")
        se.add_argument("--json", dest="json_path", metavar="FILE")
        se.add_argument("--workers", type=_at_least_one, default=1, metavar="K")

    sub.add_parser("list-claims", help="print the claim registry")

    co = sub.add_parser("count", help="closed-form sizes of the search spaces")
    g = co.add_mutually_exclusive_group(required=True)
    g.add_argument("--partitions", type=_at_least_one, metavar="N")
    g.add_argument("--surjections", type=_at_least_one, nargs=2, metavar=("N", "M"))
    g.add_argument("--subsets", type=_at_least_one, metavar="N")
    return p


def _print_registry(out) -> None:
    rows = [
        (c.id, c.expected_status, _shape_text(c), c.statement) for c in list_claims()
    ]
    wid = max(len(r[0]) for r in rows)
    wst = max(len(r[1]) for r in rows)
    wsh = max(len(r[2]) for r in rows)
    print(f"{'id':<{wid}}  {'status':<{wst}}  {'shape':<{wsh}}  statement", file=out)
    for rid, status, shape, stmt in rows:
        print(f"{rid:<{wid}}  {status:<{wst}}  {shape:<{wsh}}  {stmt}", file=out)


def _shape_text(c: Claim) -> str:
    parts = f"{c.partitions} partition" + ("s" if c.partitions > 1 else "")
    if c.needs_subset:
        parts += " + X"
    constraint = {"any": "any f", "surjective": "surjective f", "bijective": "bijective f"}
    return f"{parts}, {constraint[c.map_constraint]}"


def _resolve_claim(claim_id: str) -> Claim | None:
    try:
        return get_claim(claim_id)
    except BadInstanceError:
        print(f"unknown claim id {claim_id!r}; known claims:", file=sys.stderr)
        _print_registry(sys.stderr)
        return None


def _cmd_replay(args) -> int:
    report = replay_examples()
    current = None
    for check in report.checks:
        if check.instance != current:
            current = check.instance
            print(f"instance {current}:")
        if check.ok:
            print(f"  PASS  {check.name} = {check.actual}")
        else:
            print(f"  FAIL  {check.name}: expected {check.expected}, got {check.actual}")
    passed = sum(1 for c in report.checks if c.ok)
    print(f"replay: {passed}/{len(report.checks)} checks passed")
    return 0 if report.ok else 1


def _cmd_list_claims(args) -> int:
    _print_registry(sys.stdout)
    return 0


def _too_long_to_print(args, limit: int) -> bool:
    """Whether a lower bound on the count already has more than `limit`
    digits, so that the count need not be computed.

    2^N is its own bound.  B(n) >= k^(n-k) for every k <= n: put k elements
    in distinct blocks, then place the rest freely.  Likewise m!·S(n, m) >=
    m!·m^(n-m).  The bound keeps one digit of margin for float rounding.
    """
    if args.partitions is not None:
        n = args.partitions
        # where k^(n-k) nears 10^limit it peaks at some k < limit, so larger k add nothing
        log10 = max((n - k) * math.log10(k) for k in range(1, min(n, limit) + 1))
    elif args.surjections is not None:
        n, m = args.surjections
        log10 = math.lgamma(m + 1) / math.log(10) + (n - m) * math.log10(m) if m <= n else 0.0
    else:
        log10 = args.subsets * math.log10(2)
    return log10 >= limit + 1


def _cmd_count(args) -> int:
    # the most digits Python turns into text; none before Python 3.10.7, and 0 means no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = f"count: the result has more than {limit} digits"
    if limit and _too_long_to_print(args, limit):
        print(too_long, file=sys.stderr)
        return 2
    if args.partitions is not None:
        head, count, note = f"partitions of {args.partitions}", bell(args.partitions), ""
    elif args.surjections is not None:
        n, m = args.surjections
        note = " (no surjections onto a larger codomain)" if m > n else ""
        head, count = f"surjections {n} -> {m}", surjection_count(n, m)
    else:
        head, count, note = f"subsets of {args.subsets}", subset_count(args.subsets), ""
    try:
        text = str(count)
    except ValueError:  # more digits than Python converts to text
        print(too_long, file=sys.stderr)
        return 2
    print(f"{head}: {text}{note}")
    return 0


def _print_search_head(report: SearchReport, claim: Claim) -> None:
    print(
        f"{report.mode} {claim.id}: bounds max |U| = {report.max_u}, "
        f"max |V| = {report.max_v}, workers {report.workers}"
    )
    print(f"  claim: {claim.statement}")
    print(f"  expected status: {claim.expected_status}")


def _print_tallies(report: SearchReport) -> None:
    t = report.tally
    print(
        f"  tallies: holds {t.holds}, fails {t.fails}, "
        f"ill-typed {t.ill_typed}, vacuous {t.vacuous} "
        f"({report.instances} instances, {report.groups} groups, "
        f"{report.elapsed_s:.2f} s)"
    )
    if report.instances == 0:
        print("  note: bounds admit no instance of this claim's shape")
    if report.ill_typed_reason and report.tally.ill_typed == report.instances:
        print(f"  note: every instance is ill-typed ({report.ill_typed_reason})")


def _print_counterexample(report: SearchReport) -> None:
    inst = raw_to_instance(report.first_counterexample)
    for line in render_instance_text(inst):
        print(f"  {line}")
    text = render_witness(report.witness, inst.f.domain, inst.f.codomain)
    print("  witness: " + text.replace("\n", "\n  "))


def _exit_code(mode: str, found: bool, expected_status: str) -> int:
    """The README's exit-code table for a finished search: 0 when the space
    agreed with the registry, 1 for "look at this", 3 when falsify
    exhausts its bounds on an open claim."""
    if found:
        expected = ("refuted", "open") if mode == "falsify" else ("refuted",)
        return 0 if expected_status in expected else 1
    if mode == "verify":
        return 0
    return {"refuted": 1, "open": 3}.get(expected_status, 0)


def _cmd_search(args) -> int:
    claim = _resolve_claim(args.claim)
    if claim is None:
        return 2
    mode = args.command
    # read at call time, so a patched module attribute is the one called
    run = falsify if mode == "falsify" else verify
    report = run(claim, args.max_u, args.max_v, workers=args.workers)
    _print_search_head(report, claim)
    if mode == "falsify":
        print("counterexample found:" if report.found else "no counterexample within bounds")
    elif report.found:
        shown = len(report.failures)
        print(f"{report.tally.fails} failing instance(s); first (showing {shown} in any report):")
    else:
        print("zero failures across the full space")
    if report.found:
        _print_counterexample(report)
    _print_tallies(report)
    if args.json_path:
        write_json(args.json_path, report_doc(report))
        print(f"  report written to {args.json_path}")
    return _exit_code(mode, report.found, claim.expected_status)


def _show_relmap(parsed: ParsedInstance) -> None:
    inst = parsed.instance
    for name, p in zip(parsed.partition_names, inst.partitions):
        fr = relmap(inst.f, p)
        c = fr.classify()
        kind = (
            "an equivalence"
            if c.equivalence
            else "reflexive " + ("yes" if c.reflexive else "no")
            + ", symmetric " + ("yes" if c.symmetric else "no")
            + ", transitive " + ("yes" if c.transitive else "no")
        )
        print(f"f({name}) = {render_relation(fr)}   [{kind}]")


def _show_degrees(parsed: ParsedInstance) -> None:
    inst = parsed.instance
    u = inst.f.domain
    for name, p in zip(parsed.partition_names, inst.partitions):
        degrees = degree_table(inst.f, p)
        body = ", ".join(f"{u.label(x)}: {d}" for x, d in enumerate(degrees))
        print(f"degrees w.r.t. {name}: {body}")


def _show_approx(parsed: ParsedInstance) -> None:
    inst = parsed.instance
    if inst.x is None:
        print("approx: document has no subset_x")
        return
    fx = inst.f.image_subset(inst.x)
    print(f"X = {render_subset(inst.x)}, f(X) = {render_subset(fx)}")
    for name, p in zip(parsed.partition_names, inst.partitions):
        lo, hi = approximations(p, inst.x)
        print(f"apr_{name} X = {render_subset(lo)}, apr̄_{name} X = {render_subset(hi)}")
        fr = relmap(inst.f, p)
        if fr.classify().equivalence:
            lo_v, hi_v = approximations(fr.to_partition(), fx)
            print(
                f"apr_f({name}) f(X) = {render_subset(lo_v)}, "
                f"apr̄_f({name}) f(X) = {render_subset(hi_v)}"
            )
        else:
            print(f"f({name}) is not an equivalence; no approximations over it")


def _eval_verdict(parsed: ParsedInstance) -> tuple[int, str]:
    """Evaluate the document's claim; (exit code, outcome value)."""
    inst = parsed.instance
    claim = parsed.claim
    verdict = evaluate(claim, inst)
    print(f"claim {claim.id}: {claim.statement}")
    print(f"verdict: {verdict.outcome.value}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    if verdict.witness:
        text = render_witness(verdict.witness, inst.f.domain, inst.f.codomain)
        print("witness: " + text)
    if parsed.expected_outcome is not None:
        if verdict.outcome.value == parsed.expected_outcome:
            print(f"matches recorded outcome ({parsed.expected_outcome})")
            return 0, verdict.outcome.value
        print(
            f"MISMATCH: recorded outcome {parsed.expected_outcome}, "
            f"got {verdict.outcome.value}"
        )
        return 1, verdict.outcome.value
    return 0, verdict.outcome.value


def _cmd_eval(args) -> int:
    shows = [s for s in args.show.split(",") if s]
    bad = [s for s in shows if s not in ("relmap", "approx", "degrees")]
    if bad:
        print(f"eval: unknown --show section(s): {', '.join(bad)}", file=sys.stderr)
        return 2
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"eval: cannot read {args.input}: {e}", file=sys.stderr)
        return 2
    try:
        doc = decode_json(text)
        if isinstance(doc, dict) and doc.get("schema") == REPORT_SCHEMA:
            doc = doc.get("first_counterexample")
            if doc is None:
                print("report has no embedded counterexample; nothing to re-check")
                return 0
        parsed = parse_instance_doc(doc)
    except (ParseError, ValidationError) as e:
        print(f"eval: {e}", file=sys.stderr)
        return 2
    code = 0
    if parsed.claim_id is not None:
        try:
            code, _ = _eval_verdict(parsed)
        except BadInstanceError as e:
            print(f"eval: {e}", file=sys.stderr)
            return 2
    if "relmap" in shows:
        _show_relmap(parsed)
    if "degrees" in shows:
        _show_degrees(parsed)
    if "approx" in shows:
        _show_approx(parsed)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {
        "replay-paper": _cmd_replay,
        "eval": _cmd_eval,
        "falsify": _cmd_search,
        "verify": _cmd_search,
        "list-claims": _cmd_list_claims,
        "count": _cmd_count,
    }
    try:
        return handlers[args.command](args)
    except WorkerCrashError as e:
        print(f"roughmap: {e}", file=sys.stderr)
        return 4
    except RoughmapError as e:
        print(f"roughmap: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("roughmap: interrupted", file=sys.stderr)
        return 130
    finally:
        # the command's sweep is over: stop the search workers it started
        search._drop_workers()


if __name__ == "__main__":
    sys.exit(main())
