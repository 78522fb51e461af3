"""Witnesses: the JSON-ready evidence a failing verdict carries.

Relations come in as rows (bit j of rows[i] is the pair (i, j)) and subsets
as masks; a witness names the first offending pair or element in row-major
or increasing order, so equal inputs give equal witnesses.  `docio` renders
them.
"""


def pairs(rows) -> list[list[int]]:
    out = []
    for a, row in enumerate(rows):
        b = 0
        while row:
            if row & 1:
                out.append([a, b])
            row >>= 1
            b += 1
    return out


def elements(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _first_extra_pair(left, right) -> list[int]:
    # first pair of left missing from right, row-major order
    for a, (lr, rr) in enumerate(zip(left, right)):
        extra = lr & ~rr
        if extra:
            return [a, (extra & -extra).bit_length() - 1]
    raise AssertionError("no extra pair")


def relation_not_included(space, left_name, left, right_name, right) -> dict:
    return {
        "kind": "relation-not-included",
        "space": space,
        "pair": _first_extra_pair(left, right),
        "left_name": left_name,
        "right_name": right_name,
        "left": pairs(left),
        "right": pairs(right),
    }


def relation_not_equal(space, left_name, left, right_name, right) -> dict:
    if any(lr & ~rr for lr, rr in zip(left, right)):
        pair, side = _first_extra_pair(left, right), "left-only"
    else:
        pair, side = _first_extra_pair(right, left), "right-only"
    return {
        "kind": "relation-not-equal",
        "space": space,
        "pair": pair,
        "side": side,
        "left_name": left_name,
        "right_name": right_name,
        "left": pairs(left),
        "right": pairs(right),
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


def not_equivalence(rows) -> dict:
    m = len(rows)
    for v in range(m):
        if not (rows[v] >> v) & 1:
            return {
                "kind": "not-equivalence",
                "condition": "reflexivity",
                "items": [v],
                "relation": pairs(rows),
            }
    for a in range(m):
        for b in range(m):
            if (rows[a] >> b) & 1 and not (rows[b] >> a) & 1:
                return {
                    "kind": "not-equivalence",
                    "condition": "symmetry",
                    "items": [a, b],
                    "relation": pairs(rows),
                }
    for a in range(m):
        for b in range(m):
            if (rows[a] >> b) & 1:
                missing = rows[b] & ~rows[a]
                if missing:
                    c = (missing & -missing).bit_length() - 1
                    return {
                        "kind": "not-equivalence",
                        "condition": "transitivity",
                        "items": [a, b, c],
                        "relation": pairs(rows),
                    }
    raise AssertionError("relation is an equivalence")
