"""Exhaustive enumeration of partitions and maps, and closed-form space sizes.

Every stream is a plain lazy generator in a fixed lexicographic order, so a
sweep built from them visits instances in one canonical order.

Partitions are restricted-growth strings: rgs[0] == 0 and each later entry
is at most max(prefix) + 1.  Lex order on these strings is the canonical
partition order used everywhere else.  Maps are image tables, tuples of
codomain indices.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product
from math import factorial


# ---------------------------------------------------------------- partitions

def iter_rgs(n: int, max_blocks: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of an n-element set as rgs tuples, lex order.

    With max_blocks set, strings never use more than that many values.
    """
    if n == 0:
        yield ()
        return
    cap = n if max_blocks is None else max_blocks
    # depth-first over prefixes, each kept with the number of values it
    # uses; extensions are pushed in reverse so the least one pops first
    stack = [((), 0)]
    while stack:
        prefix, used = stack.pop()
        values = range(min(used + 1, cap))
        if len(prefix) == n - 1:
            for v in values:
                yield prefix + (v,)
        else:
            for v in reversed(values):
                stack.append((prefix + (v,), max(used, v + 1)))


# ------------------------------------------------------- tables (total maps)

def iter_tables(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All image tables n -> m in lex order: a base-m counter."""
    return product(range(m), repeat=n)


def iter_surjections(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All surjective tables n -> m, lex order on the table."""
    return (t for t in product(range(m), repeat=n) if len(set(t)) == m)


# ------------------------------------------------- canonical representatives
#
# Relabeling the codomain acts on tables; each orbit contains exactly one
# table whose values first appear in increasing order 0, 1, 2, ...  Those
# representatives are precisely the rgs strings capped at m values.

def iter_canonical_tables(n: int, m: int) -> Iterator[tuple[int, ...]]:
    return iter_rgs(n, max_blocks=m)


def iter_canonical_surjections(n: int, m: int) -> Iterator[tuple[int, ...]]:
    if m > n or m < 1:
        return
    for t in iter_rgs(n, max_blocks=m):
        if max(t) == m - 1:
            yield t


def canonical_table(table: tuple[int, ...]) -> tuple[int, ...]:
    """The representative of a table's orbit: its values relabeled so they
    first appear in order 0, 1, 2, ..."""
    labels: dict = {}
    return tuple(labels.setdefault(v, len(labels)) for v in table)


# ------------------------------------------------------------------ counting

def bell(n: int) -> int:
    """Number of partitions of an n-element set (Bell triangle)."""
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def stirling2(n: int, m: int) -> int:
    """Partitions of an n-element set into exactly m blocks (row by row)."""
    if not 0 <= m <= n:
        return 0
    row = [1] + [0] * m  # S(0, k)
    for _ in range(n):
        for k in range(m, 0, -1):  # downwards, so row[k - 1] is still S(i-1, k-1)
            row[k] = k * row[k] + row[k - 1]
        row[0] = 0
    return row[m]


def surjection_count(n: int, m: int) -> int:
    return factorial(m) * stirling2(n, m)


def table_count(n: int, m: int) -> int:
    return m ** n


def subset_count(n: int) -> int:
    return 1 << n


def canonical_table_count(n: int, m: int) -> int:
    return sum(stirling2(n, k) for k in range(1, min(n, m) + 1))
