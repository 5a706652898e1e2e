"""Cut-free decision procedure for the Lambek calculus and finite countermodels.

Formulas are built from atoms with a product and two residuals.  Backward
proof search terminates because every premise of every rule has strictly
fewer connectives; sequents are memoized, and the search is pruned by the
count invariant and cut at invertible rules without changing its proofs.
The memo records a proved sequent as True unless a proof tree is asked for;
derivable asks for none, and goes through prove.
Antecedents are kept nonempty throughout (also inside the right residual
rules), since the semantics is residuated semigroups of relations, which
have no unit.

Products chain without parentheses, so formula depth is bounded only by the
input length.  Equality, printing, atom collection, evaluation and the
countermodel search walk the left spine of a formula in a loop and recurse
only into right operands and residuals; the prover still recurses once per
rule, and raises RecursionError on a sequent whose proof search goes deeper
than the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate

from . import relations as rel
from .errors import MissingAtomError, ParseError, quote
from .relations import Interpretation, Relation
from .verifier import Exhausted, NodeBudget, first_model, plan_search

try:
    # the builtin module: importing hashlib would also load OpenSSL, about
    # 4 MB more resident memory in every CLI process
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

ATOM_RE = re.compile(r"[a-z][a-z0-9]*")

DEFAULT_PROVER_BUDGET = 1_000_000
DEFAULT_COUNTER_BUDGET = 10_000_000

# deepest parenthesis nesting the recursive-descent parser accepts; each level
# costs three stack frames, well inside the default recursion limit
MAX_NESTING = 100


@dataclass(frozen=True)
class Atom:
    """An atom; its count is its weight and its hash that of its name."""

    name: str
    count: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # a 64-bit weight of the name that, unlike hash(), is the same in every
        # process: node counts do not depend on PYTHONHASHSEED
        weight = blake2b(self.name.encode(), digest_size=8).digest()
        object.__setattr__(self, "count", int.from_bytes(weight, "big"))
        object.__setattr__(self, "_hash", hash(self.name))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class _Connective:
    """A binary formula.  Its hash and its count are computed once, from its
    children's, so a memo lookup hashes no formula tree.  The count sums the
    weights of its atom occurrences, each signed by its polarity; both sides
    of a derivable sequent have the same count (van Benthem's count invariant)."""

    left: "Formula"
    right: "Formula"
    count: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)
    # the polarities of the left and the right operand
    signs = (1, 1)

    def __post_init__(self):
        sign_left, sign_right = self.signs
        object.__setattr__(self, "count", sign_left * self.left.count + sign_right * self.right.count)
        object.__setattr__(self, "_hash", hash((type(self), self.left._hash, self.right._hash)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # along the left spine in a loop: a long product is a deep left spine
        f, g = self, other
        while isinstance(f, _Connective):
            if f is g:
                return True
            if type(f) is not type(g) or f._hash != g._hash or f.right != g.right:
                return False
            f, g = f.left, g.left
        return f == g


class Prod(_Connective):
    """left * right: composition."""


class Under(_Connective):
    """left \\ right: the largest x with left ; x <= right."""

    signs = (-1, 1)


class Over(_Connective):
    """left / right: the largest x with x ; right <= left."""

    signs = (1, -1)


Formula = Atom | Prod | Under | Over

# the relational operation (a relations.OPERATIONS name) of each connective
CONNECTIVE_OPERATION = {Prod: "composition", Under: "left-residual", Over: "right-residual"}


@dataclass(frozen=True)
class Sequent:
    antecedent: tuple[Formula, ...]
    succedent: Formula

    def __post_init__(self):
        if not self.antecedent:
            raise ValueError("antecedent must be nonempty")


def atoms_of(f: Formula) -> set[str]:
    names: set[str] = set()
    while not isinstance(f, Atom):
        names |= atoms_of(f.right)
        f = f.left
    names.add(f.name)
    return names


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
    """The formula with products left-associated and unbracketed; a product
    or a residual inside another formula is bracketed, except a product on
    the left of a product."""

    def fmt(g: Formula, top: bool) -> str:
        factors = []  # the right operands along the left spine, outermost first
        while isinstance(g, Prod):
            factors.append(g.right)
            g = g.left
        if isinstance(g, Atom):
            text = g.name
        else:
            op = "\\" if isinstance(g, Under) else "/"
            text = f"{fmt(g.left, False)}{op}{fmt(g.right, False)}"
            if factors or not top:
                text = f"({text})"
        if factors:
            text += "".join("*" + fmt(h, False) for h in reversed(factors))
            if not top:
                text = f"({text})"
        return text

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


def prove(s: Sequent, node_budget: int | None = None, *,
          tree: bool = True) -> ProofNode | bool | None:
    """The first proof of s in the rule order ax, r-under, r-over, r-prod, then
    the left rules position by position, or None.  With tree off, the same
    search records each subsequent it proves as True, and returns True.

    An unbalanced sequent (antecedent count unlike the succedent's) has no
    proof and costs no node.  Every rule keeps a sequent balanced, so the
    search meets only balanced sequents, and the split loops try only the parts
    whose count equals that of the formula the part must derive: the branches
    skipped are ones that fail, so the proof returned is the same.
    """
    budget = NodeBudget(node_budget, default=DEFAULT_PROVER_BUDGET)
    if sum(f.count for f in s.antecedent) != s.succedent.count:
        return None
    memo: dict[tuple, ProofNode | bool | None] = {}
    return _prove(s.antecedent, s.succedent, memo, budget, _node if tree else _proved)


def derivable(s: Sequent, node_budget: int | None = None) -> bool:
    """Whether s has a proof, through prove's search with each proved subsequent as True."""
    return prove(s, node_budget, tree=False) is not None


def _node(rule: str, ant, succ, *premises) -> ProofNode:
    return ProofNode(rule=rule, sequent=Sequent(ant, succ), premises=premises)


def _proved(rule: str, ant, succ, *premises) -> bool:
    return True


def _prove(ant, succ, memo, budget, node) -> ProofNode | bool | None:
    key = (ant, succ)
    if key in memo:
        return memo[key]
    budget.spend()
    if len(ant) == 1 and ant[0] == succ:
        result = node("ax", ant, succ)
    # r-under and r-over are invertible: their premise decides the sequent
    elif isinstance(succ, Under):
        sub = _prove((succ.left, *ant), succ.right, memo, budget, node)
        result = None if sub is None else node("r-under", ant, succ, sub)
    elif isinstance(succ, Over):
        sub = _prove((*ant, succ.right), succ.left, memo, budget, node)
        result = None if sub is None else node("r-over", ant, succ, sub)
    else:
        result = _prove_split(ant, succ, memo, budget, node)
    memo[key] = result
    return result


def _prove_split(ant, succ, memo, budget, node) -> ProofNode | bool | None:
    """r-prod, then the left rules; prefix[i] is the count of ant[:i], and
    node(rule, ant, succ, *premises) records a proved sequent."""
    prefix = list(accumulate((f.count for f in ant), initial=0))
    if isinstance(succ, Prod):
        for i in range(1, len(ant)):
            if prefix[i] != succ.left.count:
                continue
            left = _prove(ant[:i], succ.left, memo, budget, node)
            if left is None:
                continue
            right = _prove(ant[i:], succ.right, memo, budget, node)
            if right is not None:
                return node("r-prod", ant, succ, left, right)

    for i, f in enumerate(ant):
        if isinstance(f, Prod):
            # l-prod is invertible: its premise decides the sequent
            sub = _prove(ant[:i] + (f.left, f.right) + ant[i + 1:], succ, memo, budget, node)
            return None if sub is None else node("l-prod", ant, succ, sub)
        if isinstance(f, Under):
            # Delta, Gamma, f, Theta with Gamma = ant[j:i] nonempty
            for j in range(i):
                if prefix[i] - prefix[j] != f.left.count:
                    continue
                arg = _prove(ant[j:i], f.left, memo, budget, node)
                if arg is None:
                    continue
                body = _prove(ant[:j] + (f.right,) + ant[i + 1:], succ, memo, budget, node)
                if body is not None:
                    return node("l-under", ant, succ, arg, body)
        elif isinstance(f, Over):
            # Delta, f, Gamma, Theta with Gamma = ant[i+1:j] nonempty
            for j in range(i + 2, len(ant) + 1):
                if prefix[j] - prefix[i + 1] != f.right.count:
                    continue
                arg = _prove(ant[i + 1: j], f.right, memo, budget, node)
                if arg is None:
                    continue
                body = _prove(ant[:i] + (f.left,) + ant[j:], succ, memo, budget, node)
                if body is not None:
                    return node("l-over", ant, succ, arg, body)
    return None


# ---------------------------------------------------------------------------
# relational models


def formula_value(f: Formula, M: Interpretation) -> Relation:
    """Extend the valuation over the full square of the base; raises
    MissingAtomError for an atom M does not name."""
    values = dict(M.valuation)
    compose = rel.OPERATIONS["composition"].apply

    def value(g: Formula) -> Relation:
        factors = []  # the right operands along the left spine, outermost first
        while isinstance(g, Prod):
            factors.append(g.right)
            g = g.left
        if isinstance(g, Atom):
            if g.name not in values:
                raise MissingAtomError(f"model does not interpret atom {quote(g.name)}")
            out = values[g.name]
        else:
            op = rel.OPERATIONS[CONNECTIVE_OPERATION[type(g)]]
            out = op.apply(value(g.left), value(g.right))
        for h in reversed(factors):
            out = compose(out, value(h))
        return out

    return value(f)


def evaluate(s: Sequent, M: Interpretation) -> bool:
    """Whether the composed antecedent value is contained in the succedent value."""
    compose = rel.OPERATIONS["composition"].apply
    value = formula_value(s.antecedent[0], M)
    for f in s.antecedent[1:]:
        value = compose(value, formula_value(f, M))
    return rel.rel_subset(value, formula_value(s.succedent, M))


def countermodel_search(s: Sequent, max_base: int = 3, node_budget: int | None = None,
                        budget: NodeBudget | None = None):
    """Search models over bases 1..max_base until one refutes the sequent.

    The nodes are spent from budget, as in verifier.search_representation,
    or when none is given from a NodeBudget of node_budget nodes
    (DEFAULT_COUNTER_BUDGET when None); giving both raises ValueError.

    The search engine branches on the atoms in sorted order, the first one
    over orbit representatives only; each distinct subformula (the antecedent
    is its left-nested product) is forced, and the goal is a failing inclusion.
    Unknowns are keyed by the formula node, whose hash is cached, and numbered
    in post-order, left operand first; a node is looked up before its
    operands are visited, and the left spine below it is walked in a loop, so
    neither a long antecedent nor a long product recurses.
    """
    if budget is None:
        budget = NodeBudget(node_budget, default=DEFAULT_COUNTER_BUDGET)
    elif node_budget is not None:
        raise ValueError("give node_budget or budget, not both")
    atoms = sequent_atoms(s)
    unknown: dict[Formula, int] = {Atom(name): i for i, name in enumerate(atoms)}
    equations = []

    def index(f: Formula) -> int:
        spine = []  # the unnumbered nodes down the left spine, outermost first
        while f not in unknown:
            spine.append(f)
            f = f.left
        i = unknown[f]
        for g in reversed(spine):
            b = index(g.right)
            equations.append((CONNECTIVE_OPERATION[type(g)], i, b, len(unknown)))
            i = unknown[g] = len(unknown)
        return i

    product = s.antecedent[0]
    index(product)
    for f in s.antecedent[1:]:
        product = Prod(product, f)
        index(product)
    goal = (index(product), index(s.succedent), False)
    model = first_model(plan_search(len(unknown), equations, [goal]), atoms, max_base, budget)
    if model is None:
        return Exhausted(max_base)
    if evaluate(s, model):
        raise AssertionError("search returned a model that satisfies the sequent")
    return model
