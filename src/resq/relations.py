"""Binary relations over a finite base as bit matrices.

A relation over a base of size n is a tuple of n ints; bit j of row i is
set iff the pair (i, j) belongs to the relation.  Tuples of ints are cheap,
hashable and compare bitwise, which is what the inner loops need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch

Relation = tuple[int, ...]


def empty_relation(n: int) -> Relation:
    return (0,) * n


def full_relation(n: int) -> Relation:
    row = (1 << n) - 1
    return (row,) * n


def identity_relation(n: int) -> Relation:
    return tuple(1 << i for i in range(n))


def relation_from_pairs(n: int, pairs) -> Relation:
    rows = [0] * n
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise DimensionMismatch(f"pair ({x}, {y}) outside base of size {n}")
        rows[x] |= 1 << y
    return tuple(rows)


def relation_pairs(r: Relation) -> list[tuple[int, int]]:
    """All pairs of the relation in row-major order."""
    out = []
    for x, row in enumerate(r):
        while row:
            low = row & -row
            out.append((x, low.bit_length() - 1))
            row ^= low
    return out


def _check_dims(r: Relation, s: Relation) -> int:
    if len(r) != len(s):
        raise DimensionMismatch(f"bases of size {len(r)} and {len(s)} differ")
    return len(r)


# The operations below run millions of times per closure, so they compare the
# base sizes inline and call _check_dims only to raise.


def rel_subset(r: Relation, s: Relation) -> bool:
    if len(r) != len(s):
        _check_dims(r, s)
    for a, b in zip(r, s):
        if a & ~b:
            return False
    return True


def rel_union(r: Relation, s: Relation) -> Relation:
    _check_dims(r, s)
    return tuple(a | b for a, b in zip(r, s))


def rel_intersection(r: Relation, s: Relation) -> Relation:
    _check_dims(r, s)
    return tuple(a & b for a, b in zip(r, s))


def rel_compose(r: Relation, s: Relation) -> Relation:
    """{(x, z) : exists y with (x, y) in r and (y, z) in s}."""
    if len(r) != len(s):
        _check_dims(r, s)
    out = []
    for row in r:
        acc = 0
        while row:
            low = row & -row
            acc |= s[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return tuple(out)


def rel_lres(r: Relation, s: Relation) -> Relation:
    """Left residual r\\s = {(x, y) : for all z, (z, x) in r implies (z, y) in s}."""
    n = len(r)
    if n != len(s):
        _check_dims(r, s)
    # row x is the meet of the rows s[z] over the z with (z, x) in r
    out = [(1 << n) - 1] * n
    for rz, sz in zip(r, s):
        while rz:
            low = rz & -rz
            out[low.bit_length() - 1] &= sz
            rz ^= low
    return tuple(out)


def rel_rres(r: Relation, s: Relation) -> Relation:
    """Right residual r/s = {(x, y) : for all z, (y, z) in s implies (x, z) in r}."""
    if len(r) != len(s):
        _check_dims(r, s)
    out = []
    for rx in r:
        outside = ~rx
        row = 0
        bit = 1
        for sy in s:
            if not sy & outside:
                row |= bit
            bit <<= 1
        out.append(row)
    return tuple(out)


def is_transitive(r: Relation) -> bool:
    return rel_subset(rel_compose(r, r), r)


def permute_relation(r: Relation, perm: tuple[int, ...]) -> Relation:
    """Relabel base points: pair (i, j) of the result iff (perm[i], perm[j]) in r."""
    n = len(r)
    out = []
    for i in range(n):
        src = r[perm[i]]
        row = 0
        for j in range(n):
            if src >> perm[j] & 1:
                row |= 1 << j
        out.append(row)
    return tuple(out)


def encode_relation(r: Relation) -> int:
    n = len(r)
    acc = 0
    for i, row in enumerate(r):
        acc |= row << (i * n)
    return acc


def decode_relation(code: int, n: int) -> Relation:
    mask = (1 << n) - 1
    return tuple(code >> (i * n) & mask for i in range(n))


def all_relations(n: int):
    """All relations over a base of n points, ascending by encoding."""
    for code in range(1 << (n * n)):
        yield decode_relation(code, n)


@lru_cache(maxsize=None)
def canonical_relations(n: int) -> tuple[Relation, ...]:
    """Orbit representatives of relations under base-point permutations.

    A relation is kept iff its encoding is minimal in its orbit, so the result
    is ascending by encoding and any relation can be permuted onto a member.
    """
    perms = list(itertools.permutations(range(n)))
    reps = []
    for code in range(1 << (n * n)):
        r = decode_relation(code, n)
        if all(encode_relation(permute_relation(r, p)) >= code for p in perms):
            reps.append(r)
    return tuple(reps)


@dataclass(frozen=True)
class Interpretation:
    """A map from the elements of a finite structure to relations over a base."""

    algebra: object
    base_labels: tuple[str, ...]
    relations: tuple[Relation, ...]

    @property
    def base_size(self) -> int:
        return len(self.base_labels)

    def relation_of(self, element: int) -> Relation:
        return self.relations[element]
