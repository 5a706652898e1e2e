"""The point algebra over a dense unbounded linear order and its reducts.

Elements are the 8 subsets of the atoms {<, =, >}, encoded as 3-bit masks;
join is set union and composition is computed atomwise.  Reducts close a
generator set under join and composition, producing the join-semilattice-
ordered semigroups fed to the bounded representation search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

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
            raise ValueError(f"unknown point-algebra element {token!r}")
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

    def compose(self, r: int, s: int) -> int:
        return self.comp[r][s]


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


def dense_chain_table(samples: int = 64, depth: int = 6) -> tuple[tuple[int, ...], ...]:
    """Composition table sampled over a concrete finite chain.

    The chain holds the sample points plus iterated midpoints (depth halvings
    of every gap) and one margin point beyond each end, approximating a dense
    unbounded order well enough for atom compositions to stabilise.  Entry
    (r, s) collects the atom of every sample pair joined by some witness.
    """
    step = 1 << depth
    sample_values = [i * step for i in range(samples)]
    top = sample_values[-1]
    chain = [-step] + list(range(0, top + 1)) + [top + step]
    pos = {v: i for i, v in enumerate(chain)}
    last = len(chain) - 1

    def out_range(atom: int, v: int) -> tuple[int, int]:
        # chain-index interval of {z : (v, z) in atom}
        i = pos[v]
        if atom == 0:
            return (i + 1, last)
        if atom == 1:
            return (i, i)
        return (0, i - 1)

    def in_range(atom: int, v: int) -> tuple[int, int]:
        # chain-index interval of {z : (z, v) in atom}
        i = pos[v]
        if atom == 0:
            return (0, i - 1)
        if atom == 1:
            return (i, i)
        return (i + 1, last)

    # witness mask per sample pair: bit a*3+b set iff some chain point z has
    # (x, z) in atom a and (z, y) in atom b
    pair_data = []
    for x in sample_values:
        for y in sample_values:
            wmask = 0
            for a in range(3):
                lo_a, hi_a = out_range(a, x)
                for b in range(3):
                    lo_b, hi_b = in_range(b, y)
                    if max(lo_a, lo_b) <= min(hi_a, hi_b):
                        wmask |= 1 << (a * 3 + b)
            atom = ATOM_LT if x < y else ATOM_EQ if x == y else ATOM_GT
            pair_data.append((wmask, atom))

    selectors = []
    for r in range(8):
        row = []
        for s in range(8):
            sel = 0
            for a in range(3):
                if r >> a & 1:
                    for b in range(3):
                        if s >> b & 1:
                            sel |= 1 << (a * 3 + b)
            row.append(sel)
        selectors.append(row)

    table = [[0] * 8 for _ in range(8)]
    for wmask, atom in pair_data:
        for r in range(8):
            sel_row = selectors[r]
            for s in range(8):
                if wmask & sel_row[s]:
                    table[r][s] |= atom
    return tuple(tuple(row) for row in table)


@lru_cache(maxsize=None)
def build_point_algebra(validate: bool = True) -> PointAlgebra:
    table = _symbolic_table()
    if validate and table != dense_chain_table():
        raise AssertionError("symbolic composition table disagrees with the chain oracle")
    return PointAlgebra(comp=table)


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

    def le(self, i: int, j: int) -> bool:
        return self.join[i][j] == j

    def index_of(self, name: str) -> int:
        return self.names.index(name)


def check_sp_laws(S: SPStructure) -> None:
    n = len(S.names)
    for a in range(n):
        for b in range(n):
            if S.join[a][b] != S.join[b][a]:
                raise AssertionError(f"join not commutative at ({a}, {b})")
            for c in range(n):
                if S.join[S.join[a][b]][c] != S.join[a][S.join[b][c]]:
                    raise AssertionError(f"join not associative at ({a}, {b}, {c})")
                if S.comp[S.comp[a][b]][c] != S.comp[a][S.comp[b][c]]:
                    raise AssertionError(f"composition not associative at ({a}, {b}, {c})")
                j = S.join[b][c]
                if S.comp[a][j] != S.join[S.comp[a][b]][S.comp[a][c]]:
                    raise AssertionError(f"left distributivity fails at ({a}, {b}, {c})")
                if S.comp[j][a] != S.join[S.comp[b][a]][S.comp[c][a]]:
                    raise AssertionError(f"right distributivity fails at ({a}, {b}, {c})")
        if S.join[a][a] != a:
            raise AssertionError(f"join not idempotent at {a}")


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


@dataclass(frozen=True)
class ProbeStats:
    nodes: int
    seconds: float
    max_base: int


def frp_probe(S: SPStructure, max_base: int, node_budget: int | None = None):
    """Bounded-base representation search for a reduct; returns (result, stats).

    The result is either a verified Interpretation or Exhausted(max_base).
    The infinite-base question for a reduct is treated strictly as something
    to probe: the verdict is whatever the exhaustive bounded search proves.
    """
    budget = NodeBudget(node_budget)
    start = time.perf_counter()
    result = search_representation(S, max_base, budget=budget)
    stats = ProbeStats(
        nodes=budget.used, seconds=time.perf_counter() - start, max_base=max_base
    )
    return result, stats
