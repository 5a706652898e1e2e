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
from .errors import ResourceLimitError
from .relations import Interpretation, Relation

DEFAULT_NODE_BUDGET = 5_000_000


def _relational_ops() -> dict:
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
    value = os.environ.get("RESQ_NODE_BUDGET")
    return int(value) if value else default


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


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    witness: tuple[int, ...] | None  # (a, b) for order, (a, b, x, y) otherwise


@dataclass(frozen=True)
class VerificationReport:
    conditions: tuple[ConditionResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def payload(self, element_names, base_labels) -> dict:
        out = {}
        for c in self.conditions:
            entry: dict = {"status": "pass" if c.passed else "fail"}
            if c.witness is not None:
                a, b = c.witness[0], c.witness[1]
                witness = {"elements": [element_names[a], element_names[b]]}
                if len(c.witness) == 4:
                    x, y = c.witness[2], c.witness[3]
                    witness["points"] = [base_labels[x], base_labels[y]]
                entry["witness"] = witness
            out[c.name] = entry
        out["all_pass"] = self.all_pass
        return out


def _first_cell_difference(expected: Relation, actual: Relation) -> tuple[int, int]:
    for x in range(len(expected)):
        diff = expected[x] ^ actual[x]
        if diff:
            return x, (diff & -diff).bit_length() - 1
    raise AssertionError("relations do not differ")


def _table_condition(name, table, op, I: Interpretation, n: int) -> ConditionResult:
    for a in range(n):
        for b in range(n):
            expected = I.relations[table[a][b]]
            actual = op(I.relations[a], I.relations[b])
            if expected != actual:
                x, y = _first_cell_difference(expected, actual)
                return ConditionResult(name, False, (a, b, x, y))
    return ConditionResult(name, True, None)


def _order_condition(le, I: Interpretation, n: int) -> ConditionResult:
    for a in range(n):
        for b in range(n):
            if le(a, b) != rel.rel_subset(I.relations[a], I.relations[b]):
                return ConditionResult("order-iff", False, (a, b))
    return ConditionResult("order-iff", True, None)


def check_representation(S, I: Interpretation) -> VerificationReport:
    """Evaluate order faithfulness and one condition per operation of S.

    S lists its operations as (condition name, index table) pairs; every
    condition is always checked.
    """
    n = len(S.comp)
    ops = _relational_ops()
    conditions = (_order_condition(S.le, I, n),) + tuple(
        _table_condition(name, table, ops[name], I, n) for name, table in S.operations
    )
    return VerificationReport(conditions=conditions)


def check_union_transitive(I: Interpretation) -> bool:
    """Whether the union of all interpreted relations is transitive (advisory)."""
    union = rel.empty_relation(I.base_size)
    for r in I.relations:
        union = rel.rel_union(union, r)
    return rel.is_transitive(union)


@dataclass(frozen=True)
class Exhausted:
    """No assignment over any base of size <= max_base satisfies the conditions."""

    max_base: int


def search_representation(
    struct,
    max_base: int,
    node_budget: int | None = None,
    symmetry: bool = True,
    budget: NodeBudget | None = None,
):
    """Backtracking search for a representation over bases of size 1..max_base.

    Enforces order faithfulness and every operation the structure lists, so
    the same search serves residuated semigroups and the join/composition
    reducts of the point algebra.  Values forced by already-assigned operands
    are propagated instead of branched, and the first branched element ranges
    over base-permutation orbit representatives only, which never changes the
    verdict.  Found results are re-verified before being returned.
    """
    if budget is None:
        budget = NodeBudget(node_budget)
    for k in range(1, max_base + 1):
        assignment = _search_base(struct, k, budget, symmetry)
        if assignment is not None:
            interp = Interpretation(
                algebra=struct,
                base_labels=tuple(str(i) for i in range(k)),
                relations=assignment,
            )
            report = check_representation(struct, interp)
            if not report.all_pass:
                raise AssertionError("search returned an assignment that fails verification")
            return interp
    return Exhausted(max_base)


def _search_base(struct, k: int, budget: NodeBudget, symmetry: bool):
    n = len(struct.names)
    le = struct.le
    ops = _relational_ops()
    op_tables = tuple((table, ops[name]) for name, table in struct.operations)

    # derivations[c] lists (table, op, a, b) with table[a][b] == c: once a and
    # b are assigned the value of c is forced, and conversely an assigned c
    # constrains late assignments to a or b.
    derivations: list[list[tuple]] = [[] for _ in range(n)]
    for table, op in op_tables:
        for a in range(n):
            for b in range(n):
                derivations[table[a][b]].append((table, op, a, b))

    all_rels = list(rel.all_relations(k))
    first_candidates = list(rel.canonical_relations(k)) if symmetry else all_rels
    assign: list[Relation | None] = [None] * n

    def consistent(c: int, value: Relation) -> bool:
        for d in range(n):
            other = value if d == c else assign[d]
            if other is None:
                continue
            if le(c, d) != rel.rel_subset(value, other):
                return False
            if d != c and le(d, c) != rel.rel_subset(other, value):
                return False
            for table, op in op_tables:
                target = assign[table[c][d]] if table[c][d] != c else value
                if target is not None and op(value, other) != target:
                    return False
                if d != c:
                    target = assign[table[d][c]] if table[d][c] != c else value
                    if target is not None and op(other, value) != target:
                        return False
        for table, op, a, b in derivations[c]:
            ra = value if a == c else assign[a]
            rb = value if b == c else assign[b]
            if ra is not None and rb is not None and op(ra, rb) != value:
                return False
        return True

    def extend(branched: bool):
        budget.spend()
        forced_index = None
        forced_value = None
        for c in range(n):
            if assign[c] is not None:
                continue
            for table, op, a, b in derivations[c]:
                ra = assign[a]
                rb = assign[b]
                if ra is not None and rb is not None:
                    forced_index = c
                    forced_value = op(ra, rb)
                    break
            if forced_index is not None:
                break
        if forced_index is not None:
            if not consistent(forced_index, forced_value):
                return None
            assign[forced_index] = forced_value
            result = extend(branched)
            assign[forced_index] = None
            return result
        try:
            c = assign.index(None)
        except ValueError:
            return tuple(assign)
        candidates = all_rels if branched else first_candidates
        for value in candidates:
            budget.spend()
            if not consistent(c, value):
                continue
            assign[c] = value
            result = extend(True)
            assign[c] = None
            if result is not None:
                return result
        return None

    return extend(False)
