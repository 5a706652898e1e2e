"""Cut-free decision procedure for the Lambek calculus and finite countermodels.

Formulas are built from atoms with a product and two residuals.  Backward
proof search terminates because every premise of every rule has strictly
fewer connectives; sequents are memoized.  Antecedents are kept nonempty
throughout (also inside the right residual rules), since the semantics is
residuated semigroups of relations, which have no unit.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass

from . import relations as rel
from .errors import MissingAtomError, ParseError, ResourceLimitError
from .relations import Relation
from .verifier import Exhausted, NodeBudget

ATOM_RE = re.compile(r"[a-z][a-z0-9]*")

DEFAULT_PROVER_BUDGET = 1_000_000
DEFAULT_COUNTER_BUDGET = 10_000_000

# deepest parenthesis nesting the recursive-descent parser accepts; each level
# costs three stack frames, well inside the default recursion limit
MAX_NESTING = 100


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Prod:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Under:
    """left \\ right: the largest x with left ; x <= right."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Over:
    """left / right: the largest x with x ; right <= left."""

    left: "Formula"
    right: "Formula"


Formula = Atom | Prod | Under | Over


@dataclass(frozen=True)
class Sequent:
    antecedent: tuple[Formula, ...]
    succedent: Formula

    def __post_init__(self):
        if not self.antecedent:
            raise ValueError("antecedent must be nonempty")


def atoms_of(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    return atoms_of(f.left) | atoms_of(f.right)


def sequent_atoms(s: Sequent) -> tuple[str, ...]:
    names: set[str] = set()
    for f in s.antecedent:
        names |= atoms_of(f)
    names |= atoms_of(s.succedent)
    return tuple(sorted(names))


def connective_count(f: Formula) -> int:
    if isinstance(f, Atom):
        return 0
    return 1 + connective_count(f.left) + connective_count(f.right)


# ---------------------------------------------------------------------------
# surface syntax


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def error(self, message: str):
        raise ParseError(message, 1, self.pos + 1)


def _parse_factor(t: _Tokens) -> Formula:
    ch = t.peek()
    if ch == "(":
        if t.depth == MAX_NESTING:
            t.error(f"parentheses nested deeper than {MAX_NESTING}")
        t.pos += 1
        t.depth += 1
        f = _parse_formula(t)
        if t.peek() != ")":
            t.error("expected ')'")
        t.pos += 1
        t.depth -= 1
        return f
    match = ATOM_RE.match(t.text, t.pos) if ch is not None else None
    if not match:
        t.error("expected an atom or '('")
    t.pos = match.end()
    return Atom(match.group())


def _parse_product(t: _Tokens) -> Formula:
    f = _parse_factor(t)
    while t.peek() == "*":
        t.pos += 1
        f = Prod(f, _parse_factor(t))
    return f


def _parse_formula(t: _Tokens) -> Formula:
    # residuals are non-associative and bind loosest; the product left-associates
    f = _parse_product(t)
    ch = t.peek()
    if ch == "\\":
        t.pos += 1
        return Under(f, _parse_product(t))
    if ch == "/":
        t.pos += 1
        return Over(f, _parse_product(t))
    return f


def parse_formula(text: str) -> Formula:
    t = _Tokens(text)
    f = _parse_formula(t)
    if t.peek() is not None:
        t.error(f"unexpected {t.text[t.pos]!r}")
    return f


def parse_sequent(text: str) -> Sequent:
    if "|-" not in text:
        raise ParseError("expected '|-' between antecedent and succedent")
    left, right = text.split("|-", 1)
    if not left.strip():
        raise ParseError("empty antecedent is not allowed")
    antecedent = tuple(parse_formula(part) for part in left.split(","))
    return Sequent(antecedent=antecedent, succedent=parse_formula(right))


def format_formula(f: Formula) -> str:
    def fmt(g: Formula, left_of_product: bool) -> str:
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, Prod):
            text = f"{fmt(g.left, True)}*{fmt(g.right, False)}"
            return text if left_of_product else f"({text})"
        op = "\\" if isinstance(g, Under) else "/"
        return f"({fmt(g.left, False)}{op}{fmt(g.right, False)})"

    if isinstance(f, Prod):
        return f"{fmt(f.left, True)}*{fmt(f.right, False)}"
    if isinstance(f, (Under, Over)):
        op = "\\" if isinstance(f, Under) else "/"
        return f"{fmt(f.left, False)}{op}{fmt(f.right, False)}"
    return fmt(f, True)


def format_sequent(s: Sequent) -> str:
    return ", ".join(format_formula(f) for f in s.antecedent) + " |- " + format_formula(s.succedent)


def _too_deep() -> ResourceLimitError:
    """The error for a formula too deep for the recursive procedures.

    Products chain without parentheses, so formula depth is bounded only by
    the input length; recursion over it can exhaust the interpreter stack.
    """
    return ResourceLimitError(sys.getrecursionlimit(), "formula too deep for the recursion limit")


# ---------------------------------------------------------------------------
# backward proof search


@dataclass(frozen=True)
class ProofNode:
    rule: str
    sequent: Sequent
    premises: tuple["ProofNode", ...]


def prove(s: Sequent, node_budget: int | None = None) -> ProofNode | None:
    budget = NodeBudget(node_budget, default=DEFAULT_PROVER_BUDGET)
    memo: dict[tuple, ProofNode | None] = {}
    try:
        return _prove(s.antecedent, s.succedent, memo, budget)
    except RecursionError:
        raise _too_deep() from None


def derivable(s: Sequent, node_budget: int | None = None) -> bool:
    return prove(s, node_budget) is not None


def _node(rule: str, ant, succ, *premises) -> ProofNode:
    return ProofNode(rule=rule, sequent=Sequent(ant, succ), premises=premises)


def _prove(ant, succ, memo, budget) -> ProofNode | None:
    key = (ant, succ)
    if key in memo:
        return memo[key]
    budget.spend()
    result = None

    if len(ant) == 1 and ant[0] == succ:
        result = _node("ax", ant, succ)

    if result is None and isinstance(succ, Under):
        sub = _prove((succ.left, *ant), succ.right, memo, budget)
        if sub is not None:
            result = _node("r-under", ant, succ, sub)

    if result is None and isinstance(succ, Over):
        sub = _prove((*ant, succ.right), succ.left, memo, budget)
        if sub is not None:
            result = _node("r-over", ant, succ, sub)

    if result is None and isinstance(succ, Prod):
        for i in range(1, len(ant)):
            left = _prove(ant[:i], succ.left, memo, budget)
            if left is None:
                continue
            right = _prove(ant[i:], succ.right, memo, budget)
            if right is not None:
                result = _node("r-prod", ant, succ, left, right)
                break

    if result is None:
        for i, f in enumerate(ant):
            if isinstance(f, Prod):
                sub = _prove(ant[:i] + (f.left, f.right) + ant[i + 1:], succ, memo, budget)
                if sub is not None:
                    result = _node("l-prod", ant, succ, sub)
                    break
            elif isinstance(f, Under):
                # Delta, Gamma, f, Theta with Gamma = ant[j:i] nonempty
                for j in range(i):
                    arg = _prove(ant[j:i], f.left, memo, budget)
                    if arg is None:
                        continue
                    body = _prove(ant[:j] + (f.right,) + ant[i + 1:], succ, memo, budget)
                    if body is not None:
                        result = _node("l-under", ant, succ, arg, body)
                        break
                if result is not None:
                    break
            elif isinstance(f, Over):
                # Delta, f, Gamma, Theta with Gamma = ant[i+1:j] nonempty
                for j in range(i + 2, len(ant) + 1):
                    arg = _prove(ant[i + 1: j], f.right, memo, budget)
                    if arg is None:
                        continue
                    body = _prove(ant[:i] + (f.left,) + ant[j:], succ, memo, budget)
                    if body is not None:
                        result = _node("l-over", ant, succ, arg, body)
                        break
                if result is not None:
                    break

    memo[key] = result
    return result


# ---------------------------------------------------------------------------
# relational models


@dataclass(frozen=True)
class RelationalModel:
    base_size: int
    valuation: tuple[tuple[str, Relation], ...]

    def value_of(self, atom: str) -> Relation:
        for name, r in self.valuation:
            if name == atom:
                return r
        raise MissingAtomError(f"model does not interpret atom {atom!r}")


def formula_value(f: Formula, M: RelationalModel) -> Relation:
    """Extend the valuation over the full square of the base."""
    if isinstance(f, Atom):
        return M.value_of(f.name)
    left = formula_value(f.left, M)
    right = formula_value(f.right, M)
    if isinstance(f, Prod):
        return rel.rel_compose(left, right)
    if isinstance(f, Under):
        return rel.rel_lres(left, right)
    return rel.rel_rres(left, right)


def evaluate(s: Sequent, M: RelationalModel) -> bool:
    """Whether the composed antecedent value is contained in the succedent value."""
    try:
        value = formula_value(s.antecedent[0], M)
        for f in s.antecedent[1:]:
            value = rel.rel_compose(value, formula_value(f, M))
        return rel.rel_subset(value, formula_value(s.succedent, M))
    except RecursionError:
        raise _too_deep() from None


def countermodel_search(
    s: Sequent,
    max_base: int = 3,
    max_atom_relations: int | None = None,
    node_budget: int | None = None,
    symmetry: bool = True,
):
    """Enumerate models over bases 1..max_base until one refutes the sequent.

    Enumeration is deterministic: atoms in sorted order, relations ascending
    by encoding, with the first atom restricted to base-permutation orbit
    representatives (which preserves completeness).  max_atom_relations, when
    set, truncates the per-atom candidate list, making an Exhausted verdict
    relative to the truncated enumeration.
    """
    budget = NodeBudget(node_budget, default=DEFAULT_COUNTER_BUDGET)
    try:
        atoms = sequent_atoms(s)
    except RecursionError:
        raise _too_deep() from None

    for k in range(1, max_base + 1):
        first = list(rel.canonical_relations(k)) if symmetry else list(rel.all_relations(k))
        rest = list(rel.all_relations(k))
        if max_atom_relations is not None:
            first = first[:max_atom_relations]
            rest = rest[:max_atom_relations]
        candidate_lists = [first] + [rest] * (len(atoms) - 1)
        for values in itertools.product(*candidate_lists):
            budget.spend()
            model = RelationalModel(base_size=k, valuation=tuple(zip(atoms, values)))
            if not evaluate(s, model):
                return model
    return Exhausted(max_base)
