"""Cut-free decision procedure for the Lambek calculus and finite countermodels.

Formulas are built from atoms with a product and two residuals.  Backward
proof search terminates because every premise of every rule has strictly
fewer connectives; sequents are memoized.  Antecedents are kept nonempty
throughout (also inside the right residual rules), since the semantics is
residuated semigroups of relations, which have no unit.

Products chain without parentheses, so formula depth is bounded only by the
input length; the recursive procedures raise RecursionError on a formula
deeper than the interpreter's recursion limit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import relations as rel
from .errors import MissingAtomError, ParseError, quote
from .relations import Relation
from .verifier import Exhausted, NodeBudget, _relational_ops, plan_search, run_plan

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
    return _prove(s.antecedent, s.succedent, memo, budget)


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
        raise MissingAtomError(f"model does not interpret atom {quote(atom)}")


def parse_model(text: str) -> RelationalModel:
    """Read a model given as JSON: {"base": n, "valuation": {"p": [[x, y], ...]}}.

    base must be an int of at least 1 and each atom's value a list of [x, y]
    int pairs; raises ParseError otherwise, and DimensionMismatch for a pair
    outside the base.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"model is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("model must be a JSON object with 'base' and 'valuation'")
    base = raw.get("base")
    if type(base) is not int or base < 1:
        raise ParseError("model field 'base' must be an integer of at least 1")
    named = raw.get("valuation")
    if not isinstance(named, dict):
        raise ParseError("model field 'valuation' must be an object")
    valuation = []
    for name, pairs in sorted(named.items()):
        if not rel.is_pair_list(pairs):
            raise ParseError(f"valuation of {quote(name)} must be a list of [x, y] pairs")
        valuation.append((name, rel.relation_from_pairs(base, pairs)))
    return RelationalModel(base_size=base, valuation=tuple(valuation))


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
    value = formula_value(s.antecedent[0], M)
    for f in s.antecedent[1:]:
        value = rel.rel_compose(value, formula_value(f, M))
    return rel.rel_subset(value, formula_value(s.succedent, M))


def countermodel_search(s: Sequent, max_base: int = 3, node_budget: int | None = None):
    """Search models over bases 1..max_base until one refutes the sequent.

    The search engine branches on the atoms in sorted order, the first one
    over orbit representatives only; each distinct subformula (the antecedent
    is its left-nested product) is forced, and the goal is a failing inclusion.
    Unknowns are interned by (connective, left, right): no deep formula is hashed.
    """
    budget = NodeBudget(node_budget, default=DEFAULT_COUNTER_BUDGET)
    atoms = sequent_atoms(s)
    ops = _relational_ops()
    op_of = {Prod: ops["composition"], Under: ops["left-residual"], Over: ops["right-residual"]}
    unknown: dict = {name: i for i, name in enumerate(atoms)}
    equations = []

    def intern(kind, a: int, b: int) -> int:
        if (kind, a, b) not in unknown:
            unknown[kind, a, b] = len(unknown)
            equations.append((op_of[kind], a, b, unknown[kind, a, b]))
        return unknown[kind, a, b]

    def index(f: Formula) -> int:
        if isinstance(f, Atom):
            return unknown[f.name]
        return intern(type(f), index(f.left), index(f.right))

    product = index(s.antecedent[0])
    for f in s.antecedent[1:]:
        product = intern(Prod, product, index(f))
    goal = (product, index(s.succedent), False)
    plan = plan_search(len(unknown), equations, [goal])
    for k in range(1, max_base + 1):
        values = run_plan(plan, k, budget)
        if values is not None:
            model = RelationalModel(base_size=k, valuation=tuple(zip(atoms, values)))
            if evaluate(s, model):
                raise AssertionError("search returned a model that satisfies the sequent")
            return model
    return Exhausted(max_base)
