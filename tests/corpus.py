"""Deterministic corpus of algebras shared across the test suite.

The n <= 3 part is the full labeled enumeration.  The n = 4 part mixes
construction strategies so the completion and representation machinery sees
chains, direct products, a group, relation closures, and zero-adjoined
semigroups; the list is deterministic and deduplicated up to isomorphism.
"""

from __future__ import annotations

from resq import algebra
from resq.algebra import (
    FiniteResiduatedSemigroup,
    _associative_tables,
    _partial_orders,
    canonical_key,
    infer_residuals,
    monotonicity,
)
from resq.completion import _subset_sort_key, m_closure
from resq.errors import NoResidualError
from resq.pointalg import ATOM_EQ, ATOM_GT, ATOM_LT

C2_TEXT = "elements: a b\nleq: a<=b\ncomp: a;a=a a;b=a b;a=a b;b=a\n"

N4_CORPUS_SIZE = 24


def make_c2() -> FiniteResiduatedSemigroup:
    return algebra.parse_algebra(C2_TEXT)


def closed_sets_by_scan(A: FiniteResiduatedSemigroup) -> tuple[int, ...]:
    """Reference enumeration over all 2^n subsets; oracle for completion.closed_sets."""
    family = [x for x in range(1 << A.n) if m_closure(x, A) == x]
    return tuple(sorted(family, key=_subset_sort_key(A.names)))


def dense_chain_table(samples: int = 64, depth: int = 6) -> tuple[tuple[int, ...], ...]:
    """Point-algebra composition sampled over a concrete finite chain; oracle
    for pointalg.build_point_algebra.

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


def direct_product(A: FiniteResiduatedSemigroup, B: FiniteResiduatedSemigroup):
    """Componentwise product; residuated semigroups are closed under it."""
    nA, nB = A.n, B.n
    size = nA * nB

    def idx(i: int, j: int) -> int:
        return i * nB + j

    names = tuple(f"{a}.{b}" for a in A.names for b in B.names)
    leq = []
    for i in range(nA):
        for j in range(nB):
            row = 0
            for k in range(nA):
                for l in range(nB):
                    if A.le(i, k) and B.le(j, l):
                        row |= 1 << idx(k, l)
            leq.append(row)

    def table(TA, TB):
        return tuple(
            tuple(idx(TA[x // nB][y // nB], TB[x % nB][y % nB]) for y in range(size))
            for x in range(size)
        )

    return FiniteResiduatedSemigroup(
        names=names,
        leq=tuple(leq),
        comp=table(A.comp, B.comp),
        lres=table(A.lres, B.lres),
        rres=table(A.rres, B.rres),
    )


def adjoin_zero(leq, comp) -> FiniteResiduatedSemigroup:
    """Add an absorbing bottom to a monotone associative table on a poset.

    Adjoining a zero makes every left/right division candidate set nonempty,
    so residuals exist whenever the enlarged candidate sets have maxima;
    callers must be ready for NoResidualError.
    """
    n = len(leq)
    nn = n + 1
    new_leq = tuple([(1 << nn) - 1] + [leq[i] << 1 for i in range(n)])
    new_comp = [[0] * nn for _ in range(nn)]
    for i in range(n):
        for j in range(n):
            new_comp[i + 1][j + 1] = comp[i][j] + 1
    comp_t = tuple(tuple(row) for row in new_comp)
    lres, rres = infer_residuals(new_leq, comp_t)
    return FiniteResiduatedSemigroup(
        names=tuple(f"e{i}" for i in range(nn)),
        leq=new_leq,
        comp=comp_t,
        lres=lres,
        rres=rres,
    )


def _chain_algebra(comp_rows) -> FiniteResiduatedSemigroup:
    n = len(comp_rows)
    leq = tuple(sum(1 << j for j in range(i, n)) for i in range(n))
    comp = tuple(tuple(row) for row in comp_rows)
    lres, rres = infer_residuals(leq, comp)
    return FiniteResiduatedSemigroup(algebra.default_names(n), leq, comp, lres, rres)


def _discrete_algebra(comp_rows) -> FiniteResiduatedSemigroup:
    n = len(comp_rows)
    leq = tuple(1 << i for i in range(n))
    comp = tuple(tuple(row) for row in comp_rows)
    lres, rres = infer_residuals(leq, comp)
    return FiniteResiduatedSemigroup(algebra.default_names(n), leq, comp, lres, rres)


# single-generator families over a 3-point base whose closures have 4 members
_CLOSURE_GENERATORS = (((6, 5, 0),), ((6, 5, 3),), ((3, 6, 5),))


def build_n4_corpus(limit: int = N4_CORPUS_SIZE):
    """Distinct (up to isomorphism) 4-element residuated semigroups."""
    out = []
    seen = set()

    def record(A: FiniteResiduatedSemigroup):
        if len(out) >= limit:
            return
        key = canonical_key(A)
        if key in seen:
            return
        seen.add(key)
        assert algebra.validate(A).valid
        out.append(A)

    algs2 = list(algebra.enumerate_algebras(2))
    for A in algs2:
        for B in algs2:
            record(direct_product(A, B))

    record(_chain_algebra([[min(i, j) for j in range(4)] for i in range(4)]))
    record(_chain_algebra([[0] * 4 for _ in range(4)]))
    record(_chain_algebra([[max(0, i + j - 3) for j in range(4)] for i in range(4)]))
    record(_discrete_algebra([[(i + j) % 4 for j in range(4)] for i in range(4)]))

    for gens in _CLOSURE_GENERATORS:
        family = algebra.close_relation_family(gens, 3, max_relations=64)
        assert len(family) == 4
        record(algebra.algebra_of_relations(family))

    for leq in _partial_orders(3):
        if len(out) >= limit:
            break
        if not any(all(leq[i] >> j & 1 for i in range(3)) for j in range(3)):
            continue
        for comp in _associative_tables(3):
            if len(out) >= limit:
                break
            if monotonicity(leq, comp) is not None:
                continue
            try:
                record(adjoin_zero(leq, comp))
            except NoResidualError:
                continue

    assert len(out) == limit
    return out


def build_small_corpus():
    """All labeled residuated semigroups with n <= 3, plus the C2 fixture."""
    out = [a for n in (1, 2, 3) for a in algebra.enumerate_algebras(n)]
    out.append(make_c2())
    return out
