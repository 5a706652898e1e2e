"""Exhaustive representation checking and bounded brute-force search.

A structure lists its signature as (condition name, index table) pairs in its
``operations``; each name stands for one relational operation (composition,
a residual, union).  The checker evaluates order faithfulness plus one
condition per listed operation against the explicit relational operation,
reporting the lexicographically first witness per failed condition.  The
search enumerates relation assignments over growing bases with constraint
propagation and base-point symmetry breaking, and re-verifies anything it
returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import relations as rel
from .algebra import Check, Report, transitivity
from .errors import DimensionMismatch, ResourceLimitError, ResqError
from .relations import Interpretation, Relation

DEFAULT_NODE_BUDGET = 5_000_000


def relational_ops() -> dict:
    """The relational operation that interprets each operation condition name.

    Built per call, so the kernel functions are looked up on the relations
    module each time and wrappers installed there see every call.
    """
    return {
        "composition": rel.rel_compose,
        "left-residual": rel.rel_lres,
        "right-residual": rel.rel_rres,
        "join": rel.rel_union,
    }


def default_node_budget(default: int = DEFAULT_NODE_BUDGET) -> int:
    """RESQ_NODE_BUDGET when set, else default; raises ResqError unless the
    variable holds an integer of at least 1."""
    value = os.environ.get("RESQ_NODE_BUDGET")
    if not value:
        return default
    try:
        limit = int(value)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ResqError(f"RESQ_NODE_BUDGET must be an integer of at least 1, got {value!r}")
    return limit


class NodeBudget:
    """Mutable node counter; raises once the configured limit is exceeded.

    An explicit limit wins; otherwise the RESQ_NODE_BUDGET environment
    variable, and finally the caller's default.
    """

    def __init__(self, limit: int | None = None, default: int = DEFAULT_NODE_BUDGET):
        self.limit = limit if limit is not None else default_node_budget(default)
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise ResourceLimitError(self.limit)


def _table_condition(name, table, op, relations) -> Check:
    """Row a of the condition is op(R[a], R[b]) over every b, read off one
    column per key of R[a] (relations.op_keys).  The first relation with a
    key fills its column: R[a] packs its own keys, so op(R[a], R[b]) is both
    the entry (a, b) and, in its row x, the row of key x against R[b].  Rows
    whose keys all have columns cost no kernel call."""
    columns: dict = {}
    count = len(relations)
    for a, r in enumerate(relations):
        keys = rel.op_keys(op, r)
        expected = [relations[c] for c in table[a]]
        new = {key: x for x, key in enumerate(keys) if key not in columns}
        if new:
            actual = []
            for b, s in enumerate(relations):
                got = op(r, s)
                if got != expected[b]:
                    return _failure(name, a, b, expected[b], got)
                actual.append(got)
            for key, x in new.items():
                columns[key] = [got[x] for got in actual]
            continue
        actual = rel.relations_from_columns([columns[key] for key in keys], count)
        if actual != expected:
            for b, (want, got) in enumerate(zip(expected, actual)):
                if want != got:
                    return _failure(name, a, b, want, got)
    return Check(name, None)


def _failure(name, a, b, expected: Relation, actual: Relation) -> Check:
    x = next(x for x, (want, got) in enumerate(zip(expected, actual)) if want != got)
    diff = expected[x] ^ actual[x]
    return Check(name, (a, b, x, (diff & -diff).bit_length() - 1))


def _order_condition(leq, relations) -> Check:
    """order-iff: a <= b exactly when the relation of a is inside that of b."""
    for a, (want, got) in enumerate(zip(leq, rel.inclusion_order(relations))):
        diff = want ^ got
        if diff:
            return Check("order-iff", (a, (diff & -diff).bit_length() - 1))
    return Check("order-iff", None)


def check_representation(S, I: Interpretation) -> Report:
    """Evaluate order faithfulness and one condition per operation of S.

    S lists its operations as (condition name, index table) pairs; every
    condition is always checked.  A witness is (a, b) for order-iff, else
    (a, b, x, y) with (x, y) the first pair where op(R[a], R[b]) is wrong.
    """
    relations = I.relations[:len(S.comp)]
    if len({len(r) for r in relations}) > 1:
        raise DimensionMismatch("the relations of the interpretation have different bases")
    ops = relational_ops()
    return Report((_order_condition(S.leq, relations),) + tuple(
        _table_condition(name, table, ops[name], relations) for name, table in S.operations
    ))


def check_union_transitive(I: Interpretation) -> bool:
    """Whether the union of all interpreted relations is transitive (advisory)."""
    union = rel.empty_relation(I.base_size)
    for r in I.relations:
        union = rel.rel_union(union, r)
    return transitivity(union) is None


@dataclass(frozen=True)
class Exhausted:
    """No assignment over any base of size <= max_base satisfies the conditions."""

    max_base: int


def search_representation(
    struct,
    max_base: int,
    node_budget: int | None = None,
    budget: NodeBudget | None = None,
):
    """Search for a representation over bases of size 1..max_base.

    Enforces order faithfulness and every operation the structure lists, so
    the same search serves residuated semigroups and the join/composition
    reducts of the point algebra.  The first branched element ranges over
    base-permutation orbit representatives only, which never changes the
    verdict.  Found results are re-verified before being returned.  The
    nodes are spent from budget when given, else from a new
    NodeBudget(node_budget).
    """
    if budget is None:
        budget = NodeBudget(node_budget)
    n = len(struct.names)
    ops = relational_ops()
    equations = [(ops[name], a, b, table[a][b])
                 for name, table in struct.operations for a in range(n) for b in range(n)]
    inclusions = [(a, b, struct.le(a, b)) for a in range(n) for b in range(n)]
    plan = plan_search(n, equations, inclusions)
    interp = first_model(plan, struct.names, max_base, budget)
    if interp is None:
        return Exhausted(max_base)
    if not check_representation(struct, interp).valid:
        raise AssertionError("search returned an assignment that fails verification")
    return interp


def plan_search(n: int, equations, inclusions) -> tuple:
    """The steps in which a search over n unknown relations assigns them.

    An equation (op, a, b, c) demands op(R[a], R[b]) == R[c]; an inclusion
    (a, b, holds) demands (R[a] <= R[b]) == holds.  Whether an equation forces
    its c depends only on which unknowns are assigned, not on their values,
    so the order is fixed in advance: each step assigns the lowest unknown
    forced from assigned operands, else branches on the lowest unassigned.
    A step is (unknown, (op, a, b) or None when it branches, the equations
    and the inclusions it completes); the forcing equation is not listed.
    """
    assigned = [False] * n
    steps = []
    for _ in range(n):
        forced = min((e for e in equations if assigned[e[1]] and assigned[e[2]]
                      and not assigned[e[3]]), key=lambda e: e[3], default=None)
        c = assigned.index(False) if forced is None else forced[3]
        assigned[c] = True

        def completed(*unknowns) -> bool:
            return c in unknowns and all(assigned[u] for u in unknowns)

        steps.append((c, None if forced is None else forced[:3],
                      tuple(e for e in equations if e != forced and completed(*e[1:])),
                      tuple(i for i in inclusions if completed(*i[:2]))))
    return tuple(steps)


def first_model(plan: tuple, names, max_base: int, budget: NodeBudget) -> Interpretation | None:
    """The first assignment run_plan finds over a base of size 1..max_base, as
    the relations of names (the first unknowns) over the points "0".."k-1",
    or None.  A budget that runs out over a base of size k raises
    ResourceLimitError with bases_exhausted = k - 1."""
    for k in range(1, max_base + 1):
        try:
            values = run_plan(plan, k, budget)
        except ResourceLimitError as exc:
            raise ResourceLimitError(exc.limit, bases_exhausted=k - 1) from None
        if values is not None:
            return Interpretation(tuple(names), tuple(map(str, range(k))), values[:len(names)])
    return None


def run_plan(plan: tuple, k: int, budget: NodeBudget):
    """The first assignment over a base of size k meeting every constraint of
    the plan, or None.  Branched unknowns take relations in ascending
    encoding, the first one only the base-permutation orbit representatives
    of relations.canonical_relations: every assignment permutes onto one
    whose first branched value is a representative, and permuting the base
    keeps every constraint.  One budget node is spent per step entered and
    one per branched candidate; open branches keep their candidate iterators
    on a list, not the stack.
    """
    subset = rel.rel_subset
    every = list(rel.all_relations(k))
    first = rel.canonical_relations(k)
    values: list[Relation | None] = [None] * len(plan)

    def holds(equations, inclusions) -> bool:
        for a, b, expected in inclusions:
            if subset(values[a], values[b]) != expected:
                return False
        for op, a, b, c in equations:
            if op(values[a], values[b]) != values[c]:
                return False
        return True

    branches = []  # (step, untried candidates), innermost last; empty only before the first
    i = 0
    while True:
        budget.spend()
        if i == len(plan):
            return tuple(values)
        c, forced, equations, inclusions = plan[i]
        if forced is None:
            branches.append((i, iter(every if branches else first)))
        else:
            op, a, b = forced
            values[c] = op(values[a], values[b])
            if holds(equations, inclusions):
                i += 1
                continue
        # backtrack to the innermost branch with a candidate that holds
        while branches:
            j, candidates = branches[-1]
            c, _, equations, inclusions = plan[j]
            for value in candidates:
                budget.spend()
                values[c] = value
                if holds(equations, inclusions):
                    break
            else:
                branches.pop()
                continue
            i = j + 1
            break
        else:
            return None
