"""Structured documents and text rendering; the only label-aware layer.

One JSON schema family covers input instances ("relmap-instance/1") and
search reports ("relmap-report/1").  Elements may be written as labels or
as indices; internally everything is an index.  Relations render with the
diagonal pairs first, e.g. "{(a, a), (b, b), (a, b), (b, a)}".
`json` (which loads `re`) is imported by the functions that use it, so a
caller that reads and writes no document does not pay for it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from . import __version__ as _version
from .claims import REGISTRY, Claim, Instance, Outcome, get_claim
from .errors import (
    BadImageError,
    IoError,
    NotAPartitionError,
    ParseError,
    ValidationError,
)
from .mappings import SurjMap
from .search import RawInstance, SearchReport
from .structures import BinRelation, Partition, Subset, Universe

INSTANCE_SCHEMA = "relmap-instance/1"
REPORT_SCHEMA = "relmap-report/1"


# ---------------------------------------------------------------- rendering

def render_pairs(pairs: Sequence[Sequence[int]], labels) -> str:
    """Pair set as text: diagonal pairs first, then off-diagonal, row-major."""
    ordered = [p for p in pairs if p[0] == p[1]] + [p for p in pairs if p[0] != p[1]]
    if not ordered:
        return "∅"
    return "{" + ", ".join(f"({labels(a)}, {labels(b)})" for a, b in ordered) + "}"


def render_relation(rel: BinRelation) -> str:
    return render_pairs(list(rel.pairs()), rel.universe.label)


def render_elements(elements: Sequence[int], labels) -> str:
    if not elements:
        return "∅"
    return "{" + ", ".join(labels(e) for e in elements) + "}"


def render_subset(s: Subset) -> str:
    return render_elements(list(s.elements()), s.universe.label)


def render_witness(witness: dict, u: Universe, v: Universe) -> str:
    """Human-readable account of a Fails witness (a `witnesses` dict), using instance labels."""
    kind = witness["kind"]
    labels = (u if witness.get("space") == "domain" else v).label
    if kind in ("relation-not-included", "relation-not-equal", "subset-not-included", "subset-not-equal"):
        if kind.startswith("relation"):
            a, b = witness["pair"]
            item, render = f"pair ({labels(a)}, {labels(b)})", render_pairs
        else:
            item, render = f"element {labels(witness['element'])}", render_elements
        holder, misser = witness["left_name"], witness["right_name"]
        if witness.get("side") == "right-only":
            holder, misser = misser, holder
        lines = [
            f"{item} is in {holder} but not in {misser}",
            f"  {witness['left_name']} = {render(witness['left'], labels)}",
            f"  {witness['right_name']} = {render(witness['right'], labels)}",
        ]
        return "\n".join(lines)
    if kind == "not-equivalence":
        labels = v.label
        items = witness["items"]
        cond = witness["condition"]
        if cond == "reflexivity":
            head = f"({labels(items[0])}, {labels(items[0])}) is missing from f(R)"
        elif cond == "symmetry":
            a, b = items
            head = (
                f"({labels(a)}, {labels(b)}) is in f(R) "
                f"but ({labels(b)}, {labels(a)}) is not"
            )
        else:
            a, b, c = items
            head = (
                f"({labels(a)}, {labels(b)}) and ({labels(b)}, {labels(c)}) are in f(R) "
                f"but ({labels(a)}, {labels(c)}) is not"
            )
        return f"f(R) is not an equivalence ({cond} fails): {head}\n  f(R) = " + render_pairs(
            witness["relation"], labels
        )
    if kind == "reflexivity-mismatch":
        labels = v.label
        e = witness["element"]
        if witness["surjective"]:
            head = f"f is surjective but ({labels(e)}, {labels(e)}) is missing from f(R)"
        else:
            head = f"f is not surjective (nothing maps to {labels(e)}) yet f(R) is reflexive"
        return head + "\n  f(R) = " + render_pairs(witness["relation"], labels)
    import json

    return json.dumps(witness)


# ------------------------------------------------------------------ parsing

class ParsedInstance(
    namedtuple("ParsedInstance", "instance claim_id partition_names expected_outcome", defaults=(None,))
):
    __slots__ = ()

    @property
    def claim(self) -> Claim | None:
        return get_claim(self.claim_id) if self.claim_id else None


# the most elements a document's universe may have: a universe of v values
# makes each cached block contribution an int of about v * |U| bits, and at
# 2,048 elements a bijection document already takes seconds; the Python API
# has no bound
MAX_UNIVERSE = 2048


def _parse_universe(value, field: str) -> Universe:
    if isinstance(value, bool):
        raise ValidationError(field, "must be a size or a list of string labels")
    if isinstance(value, int):
        if value < 1:
            raise ValidationError(field, "size must be at least 1")
        default = default_labels_u if field == "universe_u" else default_labels_v
        return Universe(value, default(value))
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        if not value:
            raise ValidationError(field, "label list is empty")
        if len(set(value)) != len(value):
            raise ValidationError(field, "labels are not distinct")
        return Universe(len(value), value)
    raise ValidationError(field, "must be a size or a list of string labels")


class _Resolver:
    def __init__(self, universe: Universe, field: str):
        self.universe = universe
        self.field = field
        self.by_label = {lab: i for i, lab in enumerate(universe.labels or ())}

    def __call__(self, value, field: str | None = None) -> int:
        field = field or self.field
        if isinstance(value, bool):
            raise ValidationError(field, f"{value!r} is not an element")
        if isinstance(value, int):
            if not 0 <= value < self.universe.size:
                raise ValidationError(field, f"index {value} out of range")
            return value
        if isinstance(value, str):
            try:
                return self.by_label[value]
            except KeyError:
                raise ValidationError(field, f"unknown label {value!r}") from None
        raise ValidationError(field, f"{value!r} is not an element")


def _parse_map(doc_map, u: Universe, v: Universe) -> SurjMap:
    ru = _Resolver(u, "map")
    rv = _Resolver(v, "map")
    table: list[int | None] = [None] * u.size
    if isinstance(doc_map, dict):
        for key, val in doc_map.items():
            table[ru(key)] = rv(val)
    elif isinstance(doc_map, list):
        if len(doc_map) != u.size:
            raise ValidationError(
                "map", f"{len(doc_map)} images for {u.size} elements"
            )
        table = [rv(val) for val in doc_map]
    else:
        raise ValidationError("map", "must be an object or a per-element list")
    if None in table:
        missing = u.label(table.index(None))
        raise ValidationError("map", f"element {missing} has no image")
    try:
        return SurjMap(u, v, table)  # type: ignore[arg-type]
    except BadImageError as e:
        raise ValidationError("map", str(e)) from None


def _parse_partitions(doc_parts, u: Universe) -> tuple[tuple[str, ...], tuple[Partition, ...]]:
    if isinstance(doc_parts, dict):
        named = list(doc_parts.items())
    elif isinstance(doc_parts, list):
        named = list(zip(_partition_names(len(doc_parts)), doc_parts))
    else:
        raise ValidationError("partitions", "must be an object or a list")
    if not 1 <= len(named) <= 2:
        raise ValidationError("partitions", f"expected 1 or 2 partitions, got {len(named)}")
    out = []
    for name, blocks in named:
        field = f"partitions[{name}]"
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            raise ValidationError(field, "must be a list of blocks")
        ru = _Resolver(u, field)
        try:
            out.append(Partition.from_blocks(u, [[ru(e) for e in b] for b in blocks]))
        except NotAPartitionError as e:
            raise ValidationError(field, str(e)) from None
    return tuple(n for n, _ in named), tuple(out)


def parse_instance_doc(doc: dict) -> ParsedInstance:
    """Validated Instance from an already-decoded document."""
    if not isinstance(doc, dict):
        raise ValidationError("document", "top level must be an object")
    schema = doc.get("schema")
    if schema != INSTANCE_SCHEMA:
        raise ValidationError("schema", f"expected {INSTANCE_SCHEMA!r}, got {schema!r}")
    for key in ("universe_u", "universe_v", "map", "partitions"):
        if key not in doc:
            raise ValidationError(key, "missing")
    size, doc_map = doc["universe_u"], doc["map"]
    # a map with the wrong number of entries fails before U's labels are built
    if type(size) is int and size >= 1 and isinstance(doc_map, (list, dict)) and len(doc_map) != size:
        raise ValidationError("map", f"{len(doc_map)} images for {size} elements")
    # both universes are bounded before either one's labels are built
    for field in ("universe_u", "universe_v"):
        value = doc[field]
        count = len(value) if isinstance(value, list) else value
        if type(count) is int and count > MAX_UNIVERSE:
            raise ValidationError(field, f"more than {MAX_UNIVERSE} elements")
    u = _parse_universe(doc["universe_u"], "universe_u")
    v = _parse_universe(doc["universe_v"], "universe_v")
    f = _parse_map(doc["map"], u, v)
    names, parts = _parse_partitions(doc["partitions"], u)
    x = None
    if doc.get("subset_x") is not None:
        sx = doc["subset_x"]
        if not isinstance(sx, list):
            raise ValidationError("subset_x", "must be a list of elements")
        ru = _Resolver(u, "subset_x")
        x = Subset.from_elements(u, {ru(e) for e in sx})
    claim_id = doc.get("claim")
    if claim_id is not None and (not isinstance(claim_id, str) or claim_id not in REGISTRY):
        raise ValidationError("claim", f"unknown claim id {claim_id!r}")
    expected = doc.get("expected_outcome")
    if expected is not None and expected not in [o.value for o in Outcome]:
        raise ValidationError("expected_outcome", f"must be holds, fails, ill-typed or vacuous, got {expected!r}")
    return ParsedInstance(Instance(f, parts, x), claim_id, names, expected)


def decode_json(text: str):
    """The value of a JSON text; a syntax error is a ParseError naming its
    line and column."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None


def parse_instance(text: str) -> ParsedInstance:
    """Decode and validate an instance document from JSON text."""
    return parse_instance_doc(decode_json(text))


# ----------------------------------------------------------------- emitting

def default_labels_u(n: int) -> list[str]:
    return [str(i + 1) for i in range(n)]


def _partition_names(count: int) -> list[str]:
    """R for a single partition, else R1, R2, ..."""
    return ["R"] if count == 1 else [f"R{i + 1}" for i in range(count)]


def default_labels_v(m: int) -> list[str]:
    # a..z, then aa, ab, ... spreadsheet style
    out = []
    for i in range(m):
        s = ""
        k = i
        while k >= 0:
            s = chr(ord("a") + k % 26) + s
            k = k // 26 - 1
        out.append(s)
    return out


def emit_instance_doc(
    inst: Instance,
    claim_id: str | None = None,
    partition_names: Sequence[str] | None = None,
    expected_outcome: str | None = None,
) -> dict:
    u, v = inst.f.domain, inst.f.codomain
    lab_u = list(u.labels) if u.labels else default_labels_u(u.size)
    lab_v = list(v.labels) if v.labels else default_labels_v(v.size)
    if partition_names is None:
        partition_names = _partition_names(len(inst.partitions))
    doc: dict = {"schema": INSTANCE_SCHEMA}
    if claim_id:
        doc["claim"] = claim_id
    doc["universe_u"] = lab_u
    doc["universe_v"] = lab_v
    doc["map"] = {lab_u[x]: lab_v[y] for x, y in enumerate(inst.f.table)}
    doc["partitions"] = {
        name: [[lab_u[e] for e in block.elements()] for block in p.blocks()]
        for name, p in zip(partition_names, inst.partitions)
    }
    if inst.x is not None:
        doc["subset_x"] = [lab_u[e] for e in inst.x.elements()]
    if expected_outcome:
        doc["expected_outcome"] = expected_outcome
    return doc


def raw_to_instance(raw: RawInstance) -> Instance:
    """Rebuild a searched instance with display labels attached."""
    u = Universe(raw.n, default_labels_u(raw.n))
    v = Universe(raw.m, default_labels_v(raw.m))
    return raw.to_instance(u, v)


def render_partition(p: Partition) -> str:
    return "{" + ", ".join(render_subset(b) for b in p.blocks()) + "}"


def render_instance_text(inst: Instance) -> list[str]:
    """Short per-line description of an instance, for report bodies."""
    u, v = inst.f.domain, inst.f.codomain
    lines = [
        f"U = {render_elements(range(u.size), u.label)}, "
        f"V = {render_elements(range(v.size), v.label)}",
        "f: " + ", ".join(f"{u.label(x)} -> {v.label(y)}" for x, y in enumerate(inst.f.table)),
    ]
    for name, p in zip(_partition_names(len(inst.partitions)), inst.partitions):
        lines.append(f"{name} = {render_partition(p)}")
    if inst.x is not None:
        lines.append(f"X = {render_subset(inst.x)}")
    return lines


def report_doc(report: SearchReport) -> dict:
    claim = get_claim(report.claim_id)
    doc: dict = {
        "schema": REPORT_SCHEMA,
        "tool": f"roughmap {_version}",
        "claim": claim.id,
        "statement": claim.statement,
        "expected_status": claim.expected_status,
        "mode": report.mode,
        "bounds": {"max_u": report.max_u, "max_v": report.max_v},
        "tallies": report.tally._asdict(),
        "instances": report.instances,
        "outcome": (
            ("counterexample-found" if report.found else "exhausted-no-counterexample")
            if report.mode == "falsify"
            else ("failures-found" if report.found else "no-failures")
        ),
        "workers": report.workers,
        "groups": report.groups,
        "wall_time_s": round(report.elapsed_s, 6),
    }
    if report.ill_typed_reason:
        doc["ill_typed_reason"] = report.ill_typed_reason
    if report.first_counterexample is not None:
        inst = raw_to_instance(report.first_counterexample)
        doc["first_counterexample"] = emit_instance_doc(
            inst, claim_id=claim.id, expected_outcome="fails"
        )
        doc["witness"] = report.witness
        doc["witness_text"] = render_witness(
            report.witness, inst.f.domain, inst.f.codomain
        )
    if report.mode == "verify":
        doc["failures"] = [
            {
                "instance": emit_instance_doc(
                    raw_to_instance(raw), claim_id=claim.id, expected_outcome="fails"
                ),
                "witness": witness,
            }
            for raw, witness in report.failures
        ]
    return doc


def write_json(path: str, doc: dict) -> None:
    import json

    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None
