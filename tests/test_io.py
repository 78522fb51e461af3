import json

import pytest

from roughmap import (
    BinRelation,
    ParseError,
    Subset,
    Universe,
    ValidationError,
    emit_instance_doc,
    falsify,
    parse_instance,
    parse_instance_doc,
    render_relation,
    render_subset,
    report_doc,
    verify,
)
from roughmap import docio
from roughmap.docio import (
    INSTANCE_SCHEMA,
    REPORT_SCHEMA,
    default_labels_v,
    raw_to_instance,
    render_instance_text,
    render_partition,
    render_witness,
    write_json,
)
from roughmap.errors import IoError
from roughmap.replay import monotonicity_instance


def doc_fixture():
    return {
        "schema": INSTANCE_SCHEMA,
        "universe_u": ["1", "2", "3", "4"],
        "universe_v": ["a", "b"],
        "map": {"1": "a", "2": "a", "3": "b", "4": "b"},
        "partitions": {"R": [["1"], ["2", "3"], ["4"]]},
        "subset_x": ["1"],
    }


def test_parse_resolves_labels():
    parsed = parse_instance_doc(doc_fixture())
    inst = parsed.instance
    assert inst.f.table == (0, 0, 1, 1)
    assert inst.partitions[0].rgs == (0, 1, 1, 2)
    assert sorted(inst.x.elements()) == [0]
    assert parsed.partition_names == ("R",)


def test_parse_accepts_integer_universes_and_indices():
    doc = {
        "schema": INSTANCE_SCHEMA,
        "universe_u": 3,
        "universe_v": 2,
        "map": [0, 0, 1],
        "partitions": [[[0, 1], [2]]],
    }
    parsed = parse_instance_doc(doc)
    assert parsed.instance.f.table == (0, 0, 1)
    assert parsed.instance.x is None
    assert parsed.partition_names == ("R",)


def test_a_map_of_the_wrong_size_fails_before_labels_are_built(monkeypatch):
    # an integer universe_u is checked against the map's entry count first,
    # so a huge size with a short map builds none of its default labels
    def unbuilt(n):
        raise AssertionError("labels were built")

    monkeypatch.setattr(docio, "default_labels_u", unbuilt)
    for doc_map in ([], {}, {"1": "a"}, [0, 1]):
        doc = {"schema": INSTANCE_SCHEMA, "universe_u": 30_000_000, "universe_v": 2, "map": doc_map, "partitions": [[[0]]]}
        with pytest.raises(ValidationError) as err:
            parse_instance_doc(doc)
        assert err.value.field == "map"
        assert str(err.value) == f"map: {len(doc_map)} images for 30000000 elements"


def test_universes_above_the_document_bound_are_rejected_before_labels_are_built(monkeypatch):
    # U and V as sizes or as label lists: one element past the bound is a
    # ValidationError naming the field, raised before any label is built,
    # while a document of 2,048 elements each way still parses
    big = docio.MAX_UNIVERSE
    assert big == 2048

    def doc(u, v, n):
        return {"schema": INSTANCE_SCHEMA, "universe_u": u, "universe_v": v, "map": [0] * n, "partitions": [[[0]]]}

    def unbuilt(n):
        raise AssertionError("labels were built")

    labels = [str(i) for i in range(big + 1)]
    cases = [
        (doc(1, big + 1, 1), "universe_v"),
        (doc(1, 10**9, 1), "universe_v"),
        (doc(1, labels, 1), "universe_v"),
        (doc(big + 1, 1, big + 1), "universe_u"),
        (doc(labels, 1, big + 1), "universe_u"),
    ]
    with monkeypatch.context() as patch:
        patch.setattr(docio, "default_labels_u", unbuilt)
        patch.setattr(docio, "default_labels_v", unbuilt)
        for bad, field in cases:
            with pytest.raises(ValidationError) as err:
                parse_instance_doc(bad)
            assert err.value.field == field
            assert str(err.value) == f"{field}: more than 2048 elements"

    fine = doc(big, big, big)
    fine["map"] = list(range(big))
    fine["partitions"] = [[[x] for x in range(big)]]
    parsed = parse_instance_doc(fine)
    assert parsed.instance.f.bijective and parsed.instance.f.domain.size == big


def test_parse_validates_claim_id():
    doc = doc_fixture()
    doc["claim"] = "T41-1"
    assert parse_instance_doc(doc).claim_id == "T41-1"
    doc["claim"] = "nope"
    with pytest.raises(ValidationError):
        parse_instance_doc(doc)


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.update(schema="bogus/9"), "schema"),
        (lambda d: d.pop("universe_u"), "universe_u"),
        (lambda d: d.pop("map"), "map"),
        (lambda d: d.pop("partitions"), "partitions"),
        (lambda d: d.update(universe_u=["1", "1"]), "universe_u"),
        (lambda d: d.update(map={"1": "a", "2": "a", "3": "b"}), "map"),
        (lambda d: d.update(map={**d["map"], "9": "a"}), "map"),
        (lambda d: d.update(map={**d["map"], "1": "z"}), "map"),
        (lambda d: d.update(partitions={"R": [["1", "2"], ["2", "3", "4"]]}), "partitions"),
        (lambda d: d.update(partitions={"R": [["1"], ["3", "4"]]}), "partitions"),
        (lambda d: d.update(subset_x=["z"]), "subset_x"),
        (lambda d: d.update(universe_u=True), "universe_u"),
        (lambda d: d.update(claim=["T41-1"]), "claim"),
        (lambda d: d.update(expected_outcome="maybe"), "expected_outcome"),
        (lambda d: d.update(expected_outcome=3), "expected_outcome"),
    ],
)
def test_parse_rejects_malformed_documents(mutate, field):
    doc = doc_fixture()
    mutate(doc)
    with pytest.raises(ValidationError) as e:
        parse_instance_doc(doc)
    assert e.value.field.startswith(field)


def test_parse_instance_reports_json_position():
    with pytest.raises(ParseError) as e:
        parse_instance('{"schema": }')
    assert "line 1" in str(e.value)


def test_emit_parse_round_trip():
    inst = monotonicity_instance()
    doc = emit_instance_doc(inst, claim_id="L31-1-fwd", partition_names=("R1", "R2"))
    again = parse_instance(json.dumps(doc))
    assert again.instance.f.table == inst.f.table
    assert [p.rgs for p in again.instance.partitions] == [
        p.rgs for p in inst.partitions
    ]
    assert again.claim_id == "L31-1-fwd"
    assert again.partition_names == ("R1", "R2")


def test_default_codomain_labels_extend_past_z():
    labels = default_labels_v(30)
    assert labels[:3] == ["a", "b", "c"]
    assert len(set(labels)) == 30


def test_render_relation_lists_diagonal_first():
    u = Universe(2, ["a", "b"])
    full = BinRelation.from_pairs(u, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert render_relation(full) == "{(a, a), (b, b), (a, b), (b, a)}"
    empty = BinRelation.from_pairs(u, [])
    assert render_relation(empty) == "∅"


def test_render_subset():
    u = Universe(3, ["x", "y", "z"])
    assert render_subset(Subset.from_elements(u, [0, 2])) == "{x, z}"
    assert render_subset(Subset.empty(u)) == "∅"


def test_render_instance_text_sections():
    lines = render_instance_text(monotonicity_instance(), ("R1", "R2"))
    text = "\n".join(lines)
    assert "U = {1, 2, 3, 4, 5, 6}" in text
    assert "V = {a, b}" in text
    assert "f: 1 -> a" in text
    assert "R1 = {{1}, {2}, {3}, {4, 5, 6}}" in text


def test_render_partition_braces():
    u = Universe(3)
    from roughmap import partition_from_blocks

    p = partition_from_blocks(u, [[0, 1], [2]])
    assert render_partition(p) == "{{1, 2}, {3}}"


def test_falsify_report_doc_shape():
    report = falsify("L31-2-inc", max_u=4, max_v=2)
    doc = report_doc(report)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["claim"] == "L31-2-inc"
    assert doc["mode"] == "falsify"
    assert doc["outcome"] == "counterexample-found"
    assert doc["tallies"]["fails"] == 1
    fc = doc["first_counterexample"]
    assert fc["schema"] == INSTANCE_SCHEMA
    assert fc["claim"] == "L31-2-inc"
    assert fc["expected_outcome"] == "fails"
    assert isinstance(doc["witness_text"], str) and doc["witness_text"]
    # the embedded instance re-parses and re-fails
    parsed = parse_instance_doc(fc)
    from roughmap import Outcome, evaluate

    assert evaluate("L31-2-inc", parsed.instance).outcome is Outcome.FAILS


def test_verify_report_doc_shape():
    report = verify("T42-1", max_u=3)
    doc = report_doc(report)
    assert doc["mode"] == "verify"
    assert doc["outcome"] == "no-failures"
    assert doc["failures"] == []
    assert doc["tool"].startswith("roughmap ")
    report2 = verify("T41-1", max_u=4, max_v=2, max_failures=2)
    doc2 = report_doc(report2)
    assert doc2["outcome"] == "failures-found"
    assert len(doc2["failures"]) == 2
    for entry in doc2["failures"]:
        assert entry["instance"]["schema"] == INSTANCE_SCHEMA
        assert entry["witness"]["kind"]


def test_raw_to_instance_attaches_default_labels():
    report = falsify("T41-1", max_u=4, max_v=2)
    inst = raw_to_instance(report.first_counterexample)
    assert inst.f.domain.labels == ("1", "2", "3", "4")
    assert inst.f.codomain.labels == ("a", "b")


def test_witness_text_names_elements():
    report = falsify("L31-1-fwd", max_u=4, max_v=2)
    inst = raw_to_instance(report.first_counterexample)
    text = render_witness(report.witness, inst.f.domain, inst.f.codomain)
    assert "f(R1)" in text and "f(R2)" in text


def test_write_json_raises_io_error(tmp_path):
    target = tmp_path / "out.json"
    write_json(str(target), {"k": 1})
    assert json.loads(target.read_text()) == {"k": 1}
    with pytest.raises(IoError):
        write_json(str(tmp_path / "missing" / "out.json"), {})
