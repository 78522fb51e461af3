"""Bitmask kernels for partitions, relations and maps on small universes.

Conventions:

* elements of a universe of size n are 0..n-1;
* a subset of the universe is an int whose bit i is element i;
* a binary relation over a size-m universe is one `packed` int with the
  pair (v, w) at bit v*m + w, so its pairs in row-major order are its set
  bits from the lowest up, and set algebra on relations is int algebra;
* a partition is a restricted-growth string `rgs` (tuple of ints,
  rgs[0] == 0 and rgs[i] <= 1 + max(rgs[:i])), block ids 0..nblocks-1, or
  its equivalence relation, packed: `partition_relation` and
  `relation_rgs` convert.  On packed relations the partition lattice is
  relation algebra: the meet R1 ∧ R2 is R1 & R2, the join R1 ∨ R2 is
  closure(R1 | R2), R1 ≤ R2 when R1 & R2 == R1, and the union R1 | R2 is
  a partition's relation exactly when it equals the join;
* a map U -> V is a tuple `table` of images, plus its precomputed
  `fibers` (tuple of m preimage masks); ker f, the partition of U into the
  fibers, is partition_relation(table).

Python ints are unbounded, so every kernel works for any n.
"""

import sys
from math import gcd

# name of the kernel implementation, recorded in benchmark results
BACKEND = "python"

REFLEXIVE = 1
SYMMETRIC = 2
TRANSITIVE = 4
EQUIVALENCE = REFLEXIVE | SYMMETRIC | TRANSITIVE


def fiber_masks(table, m):
    """Preimage mask of every value 0..m-1 of a table, as a length-m tuple:
    a map's fibers, or a partition's blocks by block id when the table is
    its rgs."""
    fibers = [0] * m
    for i, v in enumerate(table):
        fibers[v] |= 1 << i
    return tuple(fibers)


def partition_relation(rgs):
    """The equivalence relation of a partition: each element is related to
    every element of its block.  Any table of block ids works, not only an
    rgs: a map table gives ker f."""
    n = len(rgs)
    blocks = fiber_masks(rgs, max(rgs) + 1)
    packed = 0
    for i, b in enumerate(rgs):
        packed |= blocks[b] << i * n
    return packed


def pairs(packed, m):
    """The pairs (v, w) of a relation in row-major order, one step per pair."""
    while packed:
        low = packed & -packed
        yield divmod(low.bit_length() - 1, m)
        packed ^= low


def relation_blocks(packed, m):
    """Mask of every block of an equivalence relation, in order of each
    block's least element (the block ids of `relation_rgs`)."""
    full = rest = (1 << m) - 1
    blocks = []
    while rest:  # the row of the least element not yet in a block
        row = (packed >> ((rest & -rest).bit_length() - 1) * m) & full
        blocks.append(row)
        rest ^= row
    return tuple(blocks)


def relation_rgs(packed, m):
    """Canonical rgs of an equivalence relation.

    Assumes `packed` already is an equivalence; block ids are assigned in
    order of each block's least element.
    """
    rgs = [0] * m
    for b, block in enumerate(relation_blocks(packed, m)):
        while block:
            low = block & -block
            rgs[low.bit_length() - 1] = b
            block ^= low
    return tuple(rgs)


def classify(packed, m):
    """Reflexive/symmetric/transitive flags of a relation, as an int: it is
    reflexive when it holds the diagonal, symmetric when it equals its
    converse, and transitive when it equals its closure."""
    diagonal = converse = 0
    for i in range(m):
        diagonal |= 1 << i * (m + 1)
    for v, w in pairs(packed, m):
        converse |= 1 << w * m + v
    return (
        (REFLEXIVE if packed & diagonal == diagonal else 0)
        | (SYMMETRIC if converse == packed else 0)
        | (TRANSITIVE if closure(packed, m) == packed else 0)
    )


def closure(packed, m):
    """Transitive closure (Warshall over the rows)."""
    full = (1 << m) - 1
    rows = [(packed >> i * m) & full for i in range(m)]
    for k in range(m):
        rk = rows[k]
        bit = 1 << k
        for i in range(m):
            if rows[i] & bit:
                rows[i] |= rk
    out = 0
    for i, row in enumerate(rows):
        out |= row << i * m
    return out


def fiber_counts(fibers, block):
    """|F_v ∩ B| of a block mask B for every fiber F_v."""
    return [(f & block).bit_count() for f in fibers]


def contribution(sizes, counts) -> int:
    """Packed pairs a block B adds to f(R), from the fiber sizes |F_v| and
    the counts |F_v ∩ B|.

    f(R) is the union over R's blocks B of a contribution that depends only
    on B and the map: the pairs (v, w) of values whose fibers B meets and
    cuts in equal fractions |F_v ∩ B|/|F_v| = |F_w ∩ B|/|F_w|.  A relation
    on V is one packed int, so f(R) is an OR of contributions.
    """
    m = len(sizes)
    classes: dict = {}  # equal fractions -> mask of their values
    for v, c in enumerate(counts):
        if c:
            g = gcd(c, sizes[v])
            key = (c // g, sizes[v] // g)
            classes[key] = classes.get(key, 0) | 1 << v
    out = 0
    for values in classes.values():
        for v in range(m):
            if (values >> v) & 1:
                out |= values << v * m
    return out


def lower_upper_masks(blocks, xmask):
    """Lower and upper approximations of a subset over explicit block masks."""
    lo = 0
    up = 0
    for b in blocks:
        if not (b & ~xmask):
            lo |= b
        if b & xmask:
            up |= b
    return lo, up


def image_mask(table, xmask):
    """Forward image of a subset mask under a map table."""
    out = 0
    i = 0
    while xmask:
        if xmask & 1:
            out |= 1 << table[i]
        xmask >>= 1
        i += 1
    return out


def select(n: int, m: int | None = None):
    """The kernel module for a universe of size n (codomain size m).

    Returns this module.  The engine fetches its kernels through this call
    (`claims.GroupContext`, `claims._SizeTables`, `claims._DirectTables`),
    so the per-layer benchmark trace (`perfbench/tracing.py`) can wrap it to
    count and time kernel calls; the public API calls the kernels directly.
    The partition lattice has no kernel of its own: the engine names a
    partition by its packed relation, or by that relation's index, and
    computes the meet with &, the union with | and the join with closure;
    refinement, the fiber condition and the union test are read from those.
    """
    return _this


_this = sys.modules[__name__]
