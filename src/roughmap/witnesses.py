"""Witnesses: the JSON-ready evidence a failing verdict carries.

Relations come in packed on a universe of size m (`kernels` has the
layout) and subsets as masks; a witness names the first offending pair or
element in row-major or increasing order, so equal inputs give equal
witnesses.  `docio` renders them.
"""

from . import kernels


def pairs(packed: int, m: int) -> list[list[int]]:
    return [list(pair) for pair in kernels.pairs(packed, m)]


def elements(mask: int) -> list[int]:
    return list(kernels.elements(mask))


def _first_pair(packed: int, m: int) -> list[int]:
    # the lowest set bit is the first pair in row-major order
    return list(next(kernels.pairs(packed, m)))


def relation_not_included(space, m, left_name, left, right_name, right) -> dict:
    return {
        "kind": "relation-not-included",
        "space": space,
        "pair": _first_pair(left & ~right, m),
        "left_name": left_name,
        "right_name": right_name,
        "left": pairs(left, m),
        "right": pairs(right, m),
    }


def relation_not_equal(space, m, left_name, left, right_name, right) -> dict:
    if left & ~right:
        pair, side = _first_pair(left & ~right, m), "left-only"
    else:
        pair, side = _first_pair(right & ~left, m), "right-only"
    return {
        "kind": "relation-not-equal",
        "space": space,
        "pair": pair,
        "side": side,
        "left_name": left_name,
        "right_name": right_name,
        "left": pairs(left, m),
        "right": pairs(right, m),
    }


def subset_not_included(left_name, left, right_name, right) -> dict:
    extra = left & ~right
    return {
        "kind": "subset-not-included",
        "space": "codomain",
        "element": (extra & -extra).bit_length() - 1,
        "left_name": left_name,
        "right_name": right_name,
        "left": elements(left),
        "right": elements(right),
    }


def subset_not_equal(left_name, left, right_name, right) -> dict:
    diff = left ^ right
    e = (diff & -diff).bit_length() - 1
    return {
        "kind": "subset-not-equal",
        "space": "codomain",
        "element": e,
        "side": "left-only" if (left >> e) & 1 else "right-only",
        "left_name": left_name,
        "right_name": right_name,
        "left": elements(left),
        "right": elements(right),
    }


def not_equivalence(packed: int, m: int) -> dict:
    # the first axiom the relation breaks, and the items that break it
    condition, items = next(
        (axiom, items) for axiom, items in zip(kernels.AXIOMS, kernels.broken_axioms(packed, m)) if items
    )
    return {"kind": "not-equivalence", "condition": condition, "items": items, "relation": pairs(packed, m)}


def reflexivity_mismatch(packed: int, m: int, fibers) -> dict:
    # T31-refl's iff broken: the least v whose (v, v) is missing from a
    # surjective map's f(R), or that nothing maps to when f(R) is reflexive
    surjective = all(fibers)
    missing = kernels.broken_axioms(packed, m)[0]
    return {
        "kind": "reflexivity-mismatch",
        "surjective": surjective,
        "reflexive": missing is None,
        "element": missing[0] if surjective else fibers.index(0),
        "relation": pairs(packed, m),
    }
