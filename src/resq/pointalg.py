"""The point algebra over a dense unbounded linear order and its reducts.

Elements are the 8 subsets of the atoms {<, =, >}, encoded as 3-bit masks;
join is set union and composition is computed atomwise.  Reducts close a
generator set under join and composition, producing the join-semilattice-
ordered semigroups fed to the bounded representation search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import join_semigroup_laws
from .errors import ParseError, quote
from .verifier import NodeBudget, search_representation

ATOM_LT, ATOM_EQ, ATOM_GT = 1, 2, 4
FULL = ATOM_LT | ATOM_EQ | ATOM_GT

# composition of single atoms over a dense unbounded chain, indexed (<, =, >)
_ATOM_COMP = (
    (ATOM_LT, ATOM_LT, FULL),
    (ATOM_LT, ATOM_EQ, ATOM_GT),
    (FULL, ATOM_GT, ATOM_GT),
)

_NAMED = {"full": FULL, "neq": ATOM_LT | ATOM_GT, "empty": 0, "0": 0}
_ATOM_CHARS = {"<": ATOM_LT, "=": ATOM_EQ, ">": ATOM_GT}


def parse_element(token: str) -> int:
    """Element syntax: atom strings like '<', '<=', '>=', or 'full' / 'neq'."""
    token = token.strip()
    if token in _NAMED:
        return _NAMED[token]
    mask = 0
    for ch in token:
        if ch not in _ATOM_CHARS:
            raise ParseError(f"unknown point-algebra element {quote(token)}")
        mask |= _ATOM_CHARS[ch]
    return mask


def render_element(mask: int) -> str:
    if mask == FULL:
        return "full"
    if mask == ATOM_LT | ATOM_GT:
        return "neq"
    if mask == ATOM_EQ | ATOM_GT:
        return ">="
    if mask == 0:
        return "0"
    return "".join(ch for ch, bit in (("<", ATOM_LT), ("=", ATOM_EQ), (">", ATOM_GT)) if mask & bit)


@dataclass(frozen=True)
class PointAlgebra:
    """All 8 elements with their symbolic composition table; join is bitwise or."""

    comp: tuple[tuple[int, ...], ...]


def _symbolic_table() -> tuple[tuple[int, ...], ...]:
    table = []
    for r in range(8):
        row = []
        for s in range(8):
            acc = 0
            for a in range(3):
                if r >> a & 1:
                    for b in range(3):
                        if s >> b & 1:
                            acc |= _ATOM_COMP[a][b]
            row.append(acc)
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def build_point_algebra() -> PointAlgebra:
    return PointAlgebra(comp=_symbolic_table())


@dataclass(frozen=True)
class SPStructure:
    """A join-semilattice-ordered semigroup: join and composition index tables."""

    names: tuple[str, ...]
    elements: tuple[int, ...]  # point-algebra masks, parallel to names
    join: tuple[tuple[int, ...], ...]
    comp: tuple[tuple[int, ...], ...]

    @property
    def operations(self) -> tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]:
        """The signature as (condition name, index table) pairs."""
        return (("composition", self.comp), ("join", self.join))

    @property
    def leq(self) -> tuple[int, ...]:
        """Order rows: bit j of leq[i] set iff i v j = j."""
        return tuple(sum(1 << j for j, ij in enumerate(row) if ij == j) for row in self.join)

    def le(self, i: int, j: int) -> bool:
        return self.join[i][j] == j


def check_sp_laws(S: SPStructure) -> None:
    """Raise AssertionError, naming the first failed join-semigroup law and
    its witness, unless join is a semilattice join and composition is
    associative and distributes over it.  The order laws are read on the
    order join induces (i <= j iff i v j = j)."""
    failures = join_semigroup_laws(S.leq, S.join, S.comp).failures
    if failures:
        raise AssertionError(failures[0].message(S.names))


def reduct(P: PointAlgebra, generator_elements) -> SPStructure:
    """Smallest subset containing the generators closed under join and composition."""
    carrier = set(generator_elements)
    if not carrier:
        raise ValueError("at least one generator is required")
    changed = True
    while changed:
        changed = False
        members = list(carrier)
        for r in members:
            for s in members:
                for t in (r | s, P.comp[r][s]):
                    if t not in carrier:
                        carrier.add(t)
                        changed = True
    elements = tuple(sorted(carrier, key=lambda m: (bin(m).count("1"), m)))
    index = {m: i for i, m in enumerate(elements)}
    k = len(elements)
    join = tuple(tuple(index[elements[i] | elements[j]] for j in range(k)) for i in range(k))
    comp = tuple(tuple(index[P.comp[elements[i]][elements[j]]] for j in range(k)) for i in range(k))
    S = SPStructure(
        names=tuple(render_element(m) for m in elements),
        elements=elements,
        join=join,
        comp=comp,
    )
    check_sp_laws(S)
    return S


def frp_probe(S: SPStructure, max_base: int, node_budget: int | None = None):
    """Bounded-base representation search for a reduct; returns (result, nodes).

    The result is either a verified Interpretation or Exhausted(max_base).
    The infinite-base question for a reduct is treated strictly as something
    to probe: the verdict is whatever the exhaustive bounded search proves.
    The nodes are those the search spent.
    """
    budget = NodeBudget(node_budget)
    result = search_representation(S, max_base, budget=budget)
    return result, budget.used
