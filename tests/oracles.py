"""The definitional semantics of relations, for the test oracles.

A relation over the points 0..n-1 is given as a tuple of n row masks, bit y
of row x set iff (x, y) is one of its pairs; that is the form the relations
of resq take.  Every operation here is read off its definition on the set of
pairs, and this module imports nothing from resq (test_source_rules.py
enforces that), so an oracle built on it never evaluates through the code it
checks.

Each distinct (operation, r, s) is evaluated once and memoised on the
relation tuples: the oracles ask for the same few relations many times.
"""

from __future__ import annotations

import functools


@functools.cache
def pairs(r: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The pairs (x, y) of r, one for each set bit y of each row x."""
    return frozenset((x, y) for x, row in enumerate(r) for y in range(row.bit_length())
                     if row >> y & 1)


def relation(n: int, pairs) -> tuple[int, ...]:
    """The row masks over n points of the relation with the given pairs,
    one tuple for each relation however often it is asked for."""
    rows = [0] * n
    for x, y in pairs:
        rows[x] |= 1 << y
    rows = tuple(rows)
    return _RELATIONS.setdefault(rows, rows)


_RELATIONS: dict[tuple[int, ...], tuple[int, ...]] = {}


@functools.cache
def _images(r: tuple[int, ...]) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """For each point x, {y : (x, y) in r} and {y : (y, x) in r}."""
    after = [set() for _ in r]
    before = [set() for _ in r]
    for x, y in pairs(r):
        after[x].add(y)
        before[y].add(x)
    return tuple(map(frozenset, after)), tuple(map(frozenset, before))


# The definitions, over the points range(n) of r and s.  Each residual is
# the largest t that the adjunction allows: r;t is inside s for r\s, and
# t;s is inside r for r/s.


def compose(r, s) -> set[tuple[int, int]]:
    """r;s: the (x, z) with (x, y) in r and (y, z) in s for some y."""
    after_r, before_s = _images(r)[0], _images(s)[1]
    return {(x, z) for x, ys in enumerate(after_r) for z, ws in enumerate(before_s)
            if not ys.isdisjoint(ws)}


def left_residual(r, s) -> set[tuple[int, int]]:
    """r\\s: the (x, y) such that (z, y) is in s for every z with (z, x) in r."""
    before_r, before_s = _images(r)[1], _images(s)[1]
    return {(x, y) for x, zs in enumerate(before_r) for y, ws in enumerate(before_s) if zs <= ws}


def right_residual(r, s) -> set[tuple[int, int]]:
    """r/s: the (x, y) such that (x, z) is in r for every z with (y, z) in s."""
    after_r, after_s = _images(r)[0], _images(s)[0]
    return {(x, y) for x, zs in enumerate(after_r) for y, ws in enumerate(after_s) if ws <= zs}


def union(r, s) -> frozenset[tuple[int, int]]:
    """r ∪ s: the pairs of r or of s."""
    return pairs(r) | pairs(s)


def included(r, s) -> bool:
    """r ⊆ s: every pair of r is a pair of s."""
    return pairs(r) <= pairs(s)


# the operations by the names structures give their conditions
DEFINITIONS = {"composition": compose, "left-residual": left_residual,
               "right-residual": right_residual, "join": union}


@functools.cache
def apply(name: str, r: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    """The operation name on r and s, two relations over one base."""
    if len(r) != len(s):
        raise ValueError(f"relations over bases of size {len(r)} and {len(s)}")
    return relation(len(r), DEFINITIONS[name](r, s))


# the operation of each Lambek connective, by the formula's class name
CONNECTIVES = {"Prod": "composition", "Under": "left-residual", "Over": "right-residual"}


def formula_value(f, valuation) -> tuple[int, ...]:
    """The relation of the Lambek formula f when each atom name has the
    relation valuation gives it.  An atom is an object of class Atom with a
    name, a compound one of class Prod, Under or Over with a left and a
    right."""
    kind = type(f).__name__
    if kind == "Atom":
        return valuation[f.name]
    return apply(CONNECTIVES[kind], formula_value(f.left, valuation),
                 formula_value(f.right, valuation))


def sequent_holds(s, valuation) -> bool:
    """Whether the product of the antecedent's values, nested to the left,
    is inside the succedent's value."""
    value = functools.reduce(lambda v, f: apply("composition", v, formula_value(f, valuation)),
                             s.antecedent[1:], formula_value(s.antecedent[0], valuation))
    return included(value, formula_value(s.succedent, valuation))
