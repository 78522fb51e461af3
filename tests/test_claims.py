import pytest

from roughmap import (
    BadInstanceError,
    Instance,
    Outcome,
    Partition,
    REGISTRY,
    Subset,
    SurjMap,
    Universe,
    Verdict,
    evaluate,
    get_claim,
    list_claims,
    make_map,
    partition_from_blocks,
    relmap,
)
from roughmap import kernels
from roughmap.claims import check_shape
from roughmap.docio import render_witness
from roughmap.replay import (
    approximation_instance,
    bijective_instance,
    monotonicity_instance,
)
from roughmap.witnesses import reflexivity_mismatch, relation_not_equal

ALL_IDS = [
    "T31",
    "T31-refl",
    "L31-1-fwd",
    "L31-1-bwd",
    "L31-2-inc",
    "L31-2-eq",
    "L31-3-inc",
    "L31-3-eq",
    "L31-3-join",
    "L32",
    "T41-1",
    "T41-2",
    "T42-1",
    "T42-2",
    "T43-1",
    "T43-2",
]

EXPECTED_STATUS = {
    "T31": "open",
    "T31-refl": "proved",
    "L31-1-fwd": "refuted",
    "L31-1-bwd": "refuted",
    "L31-2-inc": "refuted",
    "L31-2-eq": "open",
    "L31-3-inc": "refuted",
    "L31-3-eq": "open",
    "L31-3-join": "open",
    "L32": "ill-typed",
    "T41-1": "refuted",
    "T41-2": "refuted",
    "T42-1": "proved",
    "T42-2": "proved",
    "T43-1": "refuted",
    "T43-2": "refuted",
}


def test_registry_is_complete_and_stable():
    assert list(REGISTRY) == ALL_IDS
    assert [c.id for c in list_claims()] == ALL_IDS
    for cid, status in EXPECTED_STATUS.items():
        assert REGISTRY[cid].expected_status == status
    # each record carries the function a sweep calls per instance
    assert all(callable(c.evaluator) for c in REGISTRY.values())
    # the two repaired equalities assume the fiber condition
    assert [c.id for c in REGISTRY.values() if c.fiber_hypothesis] == ["L31-2-eq", "L31-3-eq"]


def test_get_claim_rejects_unknown_ids():
    assert get_claim("T31").id == "T31"
    assert get_claim(REGISTRY["L32"]) is REGISTRY["L32"]
    with pytest.raises(BadInstanceError):
        get_claim("T99")


def swap(inst):
    return Instance(inst.f, (inst.partitions[1], inst.partitions[0]))


def one(inst):
    return Instance(inst.f, (inst.partitions[0],))


def outcome(claim_id, inst):
    return evaluate(claim_id, inst).outcome


class TestMonotonicityInstance:
    # f folds 6 elements onto {a, b}; R1 refines R2

    inst = monotonicity_instance()

    def test_forward_monotonicity_fails(self):
        v = evaluate("L31-1-fwd", self.inst)
        assert v.outcome is Outcome.FAILS
        assert v.witness["kind"] == "relation-not-included"

    def test_forward_is_vacuous_when_hypothesis_fails(self):
        assert outcome("L31-1-fwd", swap(self.inst)) is Outcome.VACUOUS

    def test_backward_monotonicity_fails_on_swapped_pair(self):
        v = evaluate("L31-1-bwd", swap(self.inst))
        assert v.outcome is Outcome.FAILS
        assert v.witness["space"] == "domain"

    def test_backward_is_vacuous_here(self):
        assert outcome("L31-1-bwd", self.inst) is Outcome.VACUOUS

    def test_intersection_inclusion_fails(self):
        v = evaluate("L31-2-inc", self.inst)
        assert v.outcome is Outcome.FAILS

    def test_union_inclusion_fails_but_is_typed(self):
        # R1 refines R2, so the raw union is R2 itself: an equivalence
        v = evaluate("L31-3-inc", self.inst)
        assert v.outcome is Outcome.FAILS

    def test_join_reading_fails_too(self):
        assert outcome("L31-3-join", self.inst) is Outcome.FAILS

    def test_difference_is_never_typed(self):
        v = evaluate("L32", self.inst)
        assert v.outcome is Outcome.ILL_TYPED
        assert v.reason == "difference-not-reflexive"

    def test_equivalence_image_holds_here(self):
        assert outcome("T31", one(self.inst)) is Outcome.HOLDS
        assert outcome("T31-refl", one(self.inst)) is Outcome.HOLDS


def test_union_of_crossing_partitions_is_ill_typed():
    u = Universe(4)
    v = Universe(2)
    f = make_map(u, v, [0, 0, 1, 1])
    p1 = partition_from_blocks(u, [[0, 1], [2], [3]])
    p2 = partition_from_blocks(u, [[0], [1, 2], [3]])
    inst = Instance(f, (p1, p2))
    for cid in ("L31-3-inc", "L31-3-eq"):
        verdict = evaluate(cid, inst)
        assert verdict.outcome is Outcome.ILL_TYPED
        assert verdict.reason == "union-not-equivalence"
    # the join reading of the same pair stays well-typed
    assert evaluate("L31-3-join", inst).outcome in (Outcome.HOLDS, Outcome.FAILS)


def test_conditional_equalities_hold_under_fiber_condition():
    # fibers {0,1} and {2,3} sit inside blocks of both partitions
    u = Universe(4)
    v = Universe(2)
    f = make_map(u, v, [0, 0, 1, 1])
    p1 = partition_from_blocks(u, [[0, 1], [2, 3]])
    p2 = partition_from_blocks(u, [[0, 1, 2, 3]])
    inst = Instance(f, (p1, p2))
    assert outcome("L31-2-eq", inst) is Outcome.HOLDS
    assert outcome("L31-3-eq", inst) is Outcome.HOLDS
    # and are vacuous when a fiber crosses blocks
    p3 = partition_from_blocks(u, [[0], [1], [2, 3]])
    inst2 = Instance(f, (p3, p2))
    assert outcome("L31-2-eq", inst2) is Outcome.VACUOUS


@pytest.mark.parametrize("cid", ALL_IDS)
def test_a_renamed_record_gives_the_verdicts_of_its_original(cid):
    # the slots a context fills follow the record's fields, not its id
    claim = REGISTRY[cid]
    copy = claim._replace(id=cid + "-copy")
    mono = monotonicity_instance()
    candidates = [mono, swap(mono), one(mono), approximation_instance(), bijective_instance()]
    checked = 0
    for inst in candidates:
        try:
            check_shape(claim, inst)
        except BadInstanceError:
            continue
        want, got = evaluate(claim, inst), evaluate(copy, inst)
        assert (got.outcome, got.witness, got.reason) == (want.outcome, want.witness, want.reason), inst
        checked += 1
    assert checked


class TestApproximationInstance:
    inst = approximation_instance()

    def test_lower_image_commutation_fails(self):
        v = evaluate("T41-1", self.inst)
        assert v.outcome is Outcome.FAILS
        assert v.witness["kind"] == "subset-not-included"

    def test_upper_image_commutation_fails(self):
        assert outcome("T41-2", self.inst) is Outcome.FAILS

    def test_definable_image_claims_fail(self):
        # X = {0} is definable here, so the hypothesis bites
        assert outcome("T43-1", self.inst) is Outcome.FAILS
        assert outcome("T43-2", self.inst) is Outcome.FAILS

    def test_definability_hypothesis_gates(self):
        f = self.inst.f
        p = self.inst.partitions[0]
        rough = Subset.from_elements(f.domain, [1])  # cuts the block {1, 2}
        inst = Instance(f, (p,), rough)
        assert outcome("T43-1", inst) is Outcome.VACUOUS
        assert outcome("T43-2", inst) is Outcome.VACUOUS


class TestBijectiveInstance:
    inst = bijective_instance()

    def test_both_equalities_hold(self):
        assert outcome("T42-1", self.inst) is Outcome.HOLDS
        assert outcome("T42-2", self.inst) is Outcome.HOLDS


def test_t31_transitivity_counterexample_at_six():
    u = Universe(6)
    v = Universe(3)
    f = make_map(u, v, [0, 0, 1, 1, 2, 2])
    p = partition_from_blocks(u, [[0, 2], [1, 4], [3], [5]])
    verdict = evaluate("T31", Instance(f, (p,)))
    assert verdict.outcome is Outcome.FAILS
    assert verdict.witness["kind"] == "not-equivalence"
    assert verdict.witness["condition"] == "transitivity"
    # the image relation really is reflexive and symmetric but not transitive
    c = relmap(f, p).classify()
    assert c.reflexive and c.symmetric and not c.transitive


def test_t31_refl_biconditional_on_non_surjective_map():
    u = Universe(2)
    v = Universe(3)
    f = make_map(u, v, [0, 1])  # misses codomain element 2
    p = Partition.identity(u)
    assert not f.surjective
    # not reflexive and not surjective: the iff holds
    assert outcome("T31-refl", Instance(f, (p,))) is Outcome.HOLDS


def test_reflexivity_mismatch_names_the_least_element_that_breaks_the_iff():
    # T31-refl is proved, so no sweep builds this witness: build it here
    # from a map and a relation given by hand, once for each mismatch
    v = Universe(3, ["a", "b", "c"])

    def mismatch(table, pairs):
        packed = sum(1 << a * 3 + b for a, b in pairs)
        witness = reflexivity_mismatch(packed, 3, kernels.fiber_masks(table, 3))
        return witness, render_witness(witness, Universe(3), v)

    # surjective, and (b, b) and (c, c) are missing: b is named
    witness, text = mismatch((0, 1, 2), {(0, 0), (1, 2), (2, 0)})
    assert witness == {
        "kind": "reflexivity-mismatch",
        "surjective": True,
        "reflexive": False,
        "element": 1,
        "relation": [[0, 0], [1, 2], [2, 0]],
    }
    assert text == "f is surjective but (b, b) is missing from f(R)\n  f(R) = {(a, a), (b, c), (c, a)}"
    # not surjective, nothing maps to b, and the relation is reflexive
    witness, text = mismatch((0, 0, 2), {(0, 0), (1, 1), (2, 2)})
    assert witness == {
        "kind": "reflexivity-mismatch",
        "surjective": False,
        "reflexive": True,
        "element": 1,
        "relation": [[0, 0], [1, 1], [2, 2]],
    }
    assert text == "f is not surjective (nothing maps to b) yet f(R) is reflexive\n  f(R) = {(a, a), (b, b), (c, c)}"


def test_relation_not_equal_names_the_first_pair_of_the_side_that_has_one():
    # L31-2-eq and L31-3-eq hold wherever they have been swept, so no sweep
    # builds this witness: build it here once for each side; relations are
    # packed on V, pair (a, b) at bit a * 3 + b, and listed row-major
    v = Universe(3, ["a", "b", "c"])
    diagonal = {(0, 0), (1, 1), (2, 2)}

    def differ(left, right):
        packed = [sum(1 << a * 3 + b for a, b in rel) for rel in (left, right)]
        witness = relation_not_equal("codomain", 3, "f(R1 ∪ R2)", packed[0], "f(R1) ∪ f(R2)", packed[1])
        return witness, render_witness(witness, Universe(3), v)

    # (0, 2), (1, 2) and (2, 1) are in the left side alone: (0, 2) comes first
    witness, text = differ(diagonal | {(2, 1), (1, 2), (0, 2)}, diagonal)
    assert witness == {
        "kind": "relation-not-equal",
        "space": "codomain",
        "pair": [0, 2],
        "side": "left-only",
        "left_name": "f(R1 ∪ R2)",
        "right_name": "f(R1) ∪ f(R2)",
        "left": [[0, 0], [0, 2], [1, 1], [1, 2], [2, 1], [2, 2]],
        "right": [[0, 0], [1, 1], [2, 2]],
    }
    assert text == (
        "pair (a, c) is in f(R1 ∪ R2) but not in f(R1) ∪ f(R2)\n"
        "  f(R1 ∪ R2) = {(a, a), (b, b), (c, c), (a, c), (b, c), (c, b)}\n"
        "  f(R1) ∪ f(R2) = {(a, a), (b, b), (c, c)}"
    )
    # (2, 1) and (1, 0) are in the right side alone: (1, 0) comes first
    witness, text = differ(diagonal, diagonal | {(2, 1), (1, 0)})
    assert witness == {
        "kind": "relation-not-equal",
        "space": "codomain",
        "pair": [1, 0],
        "side": "right-only",
        "left_name": "f(R1 ∪ R2)",
        "right_name": "f(R1) ∪ f(R2)",
        "left": [[0, 0], [1, 1], [2, 2]],
        "right": [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]],
    }
    assert text == (
        "pair (b, a) is in f(R1) ∪ f(R2) but not in f(R1 ∪ R2)\n"
        "  f(R1 ∪ R2) = {(a, a), (b, b), (c, c)}\n"
        "  f(R1) ∪ f(R2) = {(a, a), (b, b), (c, c), (b, a), (c, b)}"
    )


def test_shape_checks():
    u = Universe(3)
    v = Universe(2)
    f = make_map(u, v, [0, 0, 1])
    p = Partition.identity(u)
    x = Subset.from_elements(u, [0])

    with pytest.raises(BadInstanceError):
        check_shape(get_claim("L31-1-fwd"), Instance(f, (p,)))
    with pytest.raises(BadInstanceError):
        check_shape(get_claim("T41-1"), Instance(f, (p,)))  # missing X
    with pytest.raises(BadInstanceError):
        check_shape(get_claim("T42-1"), Instance(f, (p,), x))  # not bijective
    non_surj = make_map(u, Universe(4), [0, 1, 2])
    with pytest.raises(BadInstanceError):
        check_shape(get_claim("T31"), Instance(non_surj, (Partition.identity(u),)))
    # T31-refl takes any map
    check_shape(get_claim("T31-refl"), Instance(non_surj, (Partition.identity(u),)))
    # a record built without an evaluator cannot be evaluated
    with pytest.raises(BadInstanceError):
        evaluate(get_claim("T31")._replace(evaluator=None), Instance(f, (p,)))


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(Outcome.FAILS)  # a failure needs its witness
    with pytest.raises(ValueError):
        Verdict(Outcome.ILL_TYPED)  # an ill-typed verdict needs its reason
    v = Verdict(Outcome.HOLDS)
    assert v.witness is None and v.reason is None


def test_instance_rejects_mixed_universes():
    u, v = Universe(2), Universe(2)
    f = make_map(u, v, [0, 1])
    foreign = Partition.identity(Universe(2))
    with pytest.raises(Exception):
        Instance(f, (foreign,))
