"""Deterministic corpus of algebras shared across the test suite, and the
oracles that check resq against definitions.

The n <= 3 part is the full labeled enumeration.  The n = 4 part mixes
construction strategies so the completion and representation machinery sees
chains, direct products, a group, relation closures, and zero-adjoined
semigroups; the list is deterministic and deduplicated up to isomorphism.

Every oracle that evaluates a relational operation or an inclusion (the
pairwise representation check, the inclusion order, the scalar search walk
and the naive countermodel search) evaluates it in tests/oracles.py, which
reads each one off its pair-set definition and imports nothing from resq.
"""

from __future__ import annotations

import functools
import itertools
import random

import oracles
from resq import algebra, lambek, relrep
from resq import relations as rel
from resq.algebra import (
    FiniteResiduatedSemigroup,
    antisymmetry,
    associativity,
    infer_residuals,
    monotonicity,
    transitivity,
)
from resq.errors import NoResidualError, ResourceLimitError
from resq.pointalg import ATOM_EQ, ATOM_GT, ATOM_LT
from resq.relations import Interpretation, Relation
from resq.verifier import Exhausted, plan_search

C2_TEXT = "elements: a b\nleq: a<=b\ncomp: a;a=a a;b=a b;a=a b;b=a\n"

N4_CORPUS_SIZE = 24


def make_c2() -> FiniteResiduatedSemigroup:
    return algebra.parse_algebra(C2_TEXT)


def closed_sets_by_scan(A: FiniteResiduatedSemigroup) -> tuple[int, ...]:
    """Reference enumeration over all 2^n subsets, by size, then by the
    sorted names of their members; oracle for completion.closed_sets."""
    def key(x: int):
        members = sorted(A.names[i] for i in range(A.n) if x >> i & 1)
        return len(members), members

    family = [x for x in range(1 << A.n) if closure_by_definition(x, A) == x]
    return tuple(sorted(family, key=key))


# ---------------------------------------------------------------------------
# scalar table laws: one index triple per step, each returning the
# lexicographically first violating tuple; oracles for the row-per-step laws
# of resq.algebra


def associativity_by_loops(comp, G=None) -> tuple[int, int, int] | None:
    """The first a, b, c of the indices G, in their order (every element
    when None), with (a;b);c != a;(b;c)."""
    G = range(len(comp)) if G is None else G
    for a in G:
        row = comp[a]
        for b in G:
            ab = comp[row[b]]
            comp_b = comp[b]
            for c in G:
                if ab[c] != row[comp_b[c]]:
                    return (a, b, c)
    return None


def join_irreducibles_by_definition(leq, join) -> tuple[int, ...]:
    """The x that no two elements strictly below x join to, ascending;
    oracle for algebra.join_irreducibles on a lattice."""
    n = len(leq)
    below = [[y for y in range(n) if y != x and leq[y] >> x & 1] for x in range(n)]
    return tuple(x for x in range(n)
                 if all(join[y][z] != x for y in below[x] for z in below[x]))


def residuation_by_loops(leq, comp, lres, rres) -> tuple[int, int, int] | None:
    n = len(leq)
    for a in range(n):
        comp_a = comp[a]
        lres_a = lres[a]
        row_a = leq[a]
        for b in range(n):
            row_ab = leq[comp_a[b]]
            row_b = leq[b]
            for c in range(n):
                below = row_ab >> c & 1
                if row_b >> lres_a[c] & 1 != below or row_a >> rres[c][b] & 1 != below:
                    return (a, b, c)
    return None


def distributivity_by_loops(join, comp) -> tuple[int, int, int] | None:
    n = len(comp)
    for a in range(n):
        comp_a = comp[a]
        for b in range(n):
            join_b = join[b]
            for c in range(n):
                bc = join_b[c]
                if (
                    comp_a[bc] != join[comp_a[b]][comp_a[c]]
                    or comp[bc][a] != join[comp[b][a]][comp[c][a]]
                ):
                    return (a, b, c)
    return None


def order_reflection_by_loops(leq, comp) -> tuple[int, int] | None:
    n = len(leq)
    for a in range(n):
        for b in range(n):
            if not leq[a] >> b & 1 and all(
                leq[comp[a][q]] >> comp[b][q] & 1 for q in range(n)
            ):
                return (a, b)
    return None


def inclusion_order_by_loops(family) -> tuple[int, ...]:
    """Order rows of a family by inclusion, one pair-set inclusion per
    ordered pair of members.  Oracle for relations.inclusion_order, which
    reads them off a stack."""
    return tuple(sum(1 << j for j, s in enumerate(family) if oracles.included(r, s))
                 for r in family)


def infer_residuals_by_loops(leq, comp, names=None):
    """Both residual tables, each cell the maximum of its candidate set found
    on its own; raises NoResidualError at the first cell without one, every
    a\\c before every c/b."""
    n = len(leq)
    down = [sum(1 << j for j in range(n) if leq[j] >> i & 1) for i in range(n)]

    def max_of(candidates: int) -> int | None:
        for i in range(n):
            if candidates >> i & 1 and not candidates & ~down[i]:
                return i
        return None

    def residual(side, x, y, candidates):
        m = max_of(candidates)
        if m is None:
            members = frozenset(z for z in range(n) if candidates >> z & 1)
            raise NoResidualError(x, y, side, members, names)
        return m

    # a\\c is the maximum of {b : a;b <= c}, c/b the maximum of {a : a;b <= c}
    lres = tuple(
        tuple(residual("left", a, c, sum(1 << b for b in range(n) if leq[comp[a][b]] >> c & 1))
              for c in range(n))
        for a in range(n)
    )
    rres = tuple(
        tuple(residual("right", c, b, sum(1 << a for a in range(n) if leq[comp[a][b]] >> c & 1))
              for b in range(n))
        for c in range(n)
    )
    return lres, rres


# generator families whose completions have 16, 20 and 32 elements
LARGE_QUANTALE_FAMILIES = (
    (2, ((3, 1),)),
    (3, ((7, 0, 2),)),
    (3, ((4, 0, 1),)),
)


def closure_by_definition(x_mask: int, A: FiniteResiduatedSemigroup) -> int:
    """m(X) read off its definition: y is in m(X) iff y <= u for every upper
    bound u of X.  Oracle for the closure map of resq.completion; reads only
    the order."""
    members = [x for x in range(A.n) if x_mask >> x & 1]
    uppers = [u for u in range(A.n) if all(A.le(x, u) for x in members)]
    return sum(1 << y for y in range(A.n) if all(A.le(y, u) for u in uppers))


def product_by_definition(x_mask: int, y_mask: int, A: FiniteResiduatedSemigroup) -> int:
    """{x;y : x in X, y in Y} as a bitmask."""
    return sum(
        {1 << A.comp[x][y] for x in range(A.n) if x_mask >> x & 1
         for y in range(A.n) if y_mask >> y & 1}
    )


def hat_by_definition(Q, a: int) -> Relation:
    """{(g, q) : g <= a;q} over the carrier of Q, in plain loops; oracle for
    relrep.hat."""
    return tuple(
        sum(1 << q for q in range(Q.size) if Q.le(g, Q.comp[a][q])) for g in range(Q.size)
    )


def sup_by_fold(Q, indices) -> int:
    """The join of the indexed elements of Q, folding Q.sup from Q.bottom."""
    acc = Q.bottom
    for i in indices:
        acc = Q.sup[acc][i]
    return acc


def large_quantale_algebras() -> list[FiniteResiduatedSemigroup]:
    return [
        algebra.generate_concrete(base, generators=list(gens), max_relations=64)[0]
        for base, gens in LARGE_QUANTALE_FAMILIES
    ]


# a generator family whose completion has 50 elements, the largest the
# benchmark's families reach
QUANTALE_50_FAMILY = (3, ((3, 1, 3),))


@functools.lru_cache(maxsize=None)
def quantale_50_model():
    """The algebra of the closure of QUANTALE_50_FAMILY, its 50-element
    completion and the interpretation the default pipeline gives it."""
    base, gens = QUANTALE_50_FAMILY
    A = algebra.generate_concrete(base, generators=list(gens), max_relations=64)[0]
    result = relrep.represent_pipeline(A)
    return A, result.quantale, result.interpretation


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


# ---------------------------------------------------------------------------
# the canonical text form, which keys the ledger, and the labeled enumeration
# of the n <= 3 corpus; no command and no benchmark workload runs either


def serialize(A: FiniteResiduatedSemigroup) -> str:
    """Canonical text form: blocks in fixed order, entries sorted by name."""
    lines = ["elements: " + " ".join(A.names)]
    pairs = sorted(
        (A.names[i], A.names[j])
        for i in range(A.n)
        for j in range(A.n)
        if i != j and A.le(i, j)
    )
    lines.append("leq:" + "".join(f" {x}<={y}" for x, y in pairs))

    def table_line(label: str, sep: str, table) -> str:
        entries = sorted(
            (A.names[i], A.names[j], A.names[table[i][j]])
            for i in range(A.n)
            for j in range(A.n)
        )
        return f"{label}:" + "".join(f" {x}{sep}{y}={z}" for x, y, z in entries)

    lines.append(table_line("comp", ";", A.comp))
    lines.append(table_line("lres", "\\", A.lres))
    lines.append(table_line("rres", "/", A.rres))
    return "\n".join(lines) + "\n"


ENUMERATION_CAP = 3


@functools.lru_cache(maxsize=None)
def _partial_orders(n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((0, 1), repeat=len(off_diagonal)):
        rows = [1 << i for i in range(n)]
        for (i, j), bit in zip(off_diagonal, bits):
            if bit:
                rows[i] |= 1 << j
        if antisymmetry(rows) is None and transitivity(rows) is None:
            out.append(tuple(rows))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _associative_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # tables in lexicographic order, each a tuple of n of the n ** n rows
    rows = tuple(itertools.product(range(n), repeat=n))
    return tuple(comp for comp in itertools.product(rows, repeat=n) if associativity(comp) is None)


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


def enumerate_algebras(n: int):
    """Yield every residuated semigroup on the n labeled elements e0..e{n-1}
    exactly once; isomorphic copies are all yielded.

    Runs over all partial orders and all associative monotone composition
    tables, keeping those whose residuals exist.  Raises ResourceLimitError
    for n above ENUMERATION_CAP, whose tables are too many to scan.
    """
    if n < 1:
        raise ValueError("carrier must be nonempty")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(ENUMERATION_CAP, f"enumeration of size {n} exceeds the cap")
    names = default_names(n)
    for leq in _partial_orders(n):
        for comp in _associative_tables(n):
            if monotonicity(leq, comp) is not None:
                continue
            try:
                lres, rres = infer_residuals(leq, comp)
            except NoResidualError:
                continue
            yield FiniteResiduatedSemigroup(names=names, leq=leq, comp=comp, lres=lres, rres=rres)


def _chain_algebra(comp_rows) -> FiniteResiduatedSemigroup:
    n = len(comp_rows)
    leq = tuple(sum(1 << j for j in range(i, n)) for i in range(n))
    comp = tuple(tuple(row) for row in comp_rows)
    lres, rres = infer_residuals(leq, comp)
    return FiniteResiduatedSemigroup(default_names(n), leq, comp, lres, rres)


def _discrete_algebra(comp_rows) -> FiniteResiduatedSemigroup:
    n = len(comp_rows)
    leq = tuple(1 << i for i in range(n))
    comp = tuple(tuple(row) for row in comp_rows)
    lres, rres = infer_residuals(leq, comp)
    return FiniteResiduatedSemigroup(default_names(n), leq, comp, lres, rres)


# single-generator families over a 3-point base whose closures have 4 members
_CLOSURE_GENERATORS = (((6, 5, 0),), ((6, 5, 3),), ((3, 6, 5),))


def canonical_key(A: FiniteResiduatedSemigroup) -> tuple:
    """Isomorphism-invariant key: minimal relabeling of all four tables.
    Dedupes the n = 4 corpus; the library has no isomorphism filter."""
    n = A.n
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        leq_bits = tuple(
            1 if A.le(perm[i], perm[j]) else 0 for i in range(n) for j in range(n)
        )
        comp_bits = tuple(inv[A.comp[perm[i]][perm[j]]] for i in range(n) for j in range(n))
        lres_bits = tuple(inv[A.lres[perm[i]][perm[j]]] for i in range(n) for j in range(n))
        rres_bits = tuple(inv[A.rres[perm[i]][perm[j]]] for i in range(n) for j in range(n))
        key = (leq_bits, comp_bits, lres_bits, rres_bits)
        if best is None or key < best:
            best = key
    return best


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

    algs2 = list(enumerate_algebras(2))
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
    out = [a for n in (1, 2, 3) for a in enumerate_algebras(n)]
    out.append(make_c2())
    return out


# malformed lambek eval models, each an input error: the first nine once ended
# in a traceback or printed a verdict
MALFORMED_MODELS = [
    {"base": 1, "valuation": []},
    {"base": 1, "valuation": True},
    {"base": 1, "valuation": None},
    {"base": 1, "valuation": 1.5},
    {"base": 1, "valuation": "x"},
    {"base": 1, "valuation": {"p": {}}},
    {"base": 0, "valuation": {"p": [[0, 0]]}},
    {"base": -1, "valuation": {"p": [[0, 0]]}},
    {"base": 1.5, "valuation": {"p": [[0, 0]]}},
    {"base": True, "valuation": {"p": [[0, 0]]}},
    {"base": 1, "valuation": {"p": [[0, True]]}},
    {"base": 1, "valuation": {"p": [[0, 1]]}},
    None,
    [1],
]


def lambek_model(base: int, valuation) -> Interpretation:
    """The model over the points "0".."base-1" that gives each atom of the
    (atom, relation) pairs of valuation its relation."""
    return Interpretation(tuple(name for name, _ in valuation), tuple(map(str, range(base))),
                          tuple(r for _, r in valuation))


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
    """The encoding whose bit i * n + j is pair (i, j) of r."""
    n = len(r)
    acc = 0
    for i, row in enumerate(r):
        acc |= row << (i * n)
    return acc


def a4_generators(base: int, seed: int) -> list[Relation]:
    """The generators of acceptance check A4's seed: a Random(seed) draw of
    one to three relations over the base."""
    rng = random.Random(seed)
    count = rng.randint(1, 3)
    return [tuple(rng.randrange(1 << base) for _ in range(base)) for _ in range(count)]


def all_relations(n: int):
    """All relations over a base of n points, ascending by encoding."""
    for code in range(1 << (n * n)):
        yield rel.decode_relation(code, n)


@functools.lru_cache(maxsize=None)
def canonical_relations_by_scan(n: int) -> tuple[Relation, ...]:
    """The relations whose encoding is minimal in their orbit under
    base-point permutations, found by permuting every relation every way.
    Oracle for relations.canonical_relations, the sliced lex-leader test."""
    perms = list(itertools.permutations(range(n)))
    return tuple(r for r in all_relations(n)
                 if all(encode_relation(permute_relation(r, p)) >= encode_relation(r)
                        for p in perms))


def plan_search_by_scan(n: int, equations, inclusions) -> tuple:
    """verifier.plan_search read off its definition: at each step, scan every
    equation for the lowest unknown forced from assigned operands (the first
    such equation in list order), else branch on the lowest unassigned; then
    list, in list order, the constraints the step completes."""
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


def scalar_run_plan(plan: tuple, k: int, budget):
    """verifier.run_plan trying one candidate at a time: branched unknowns
    take relations ascending by encoding, the first one the minimal
    encodings of their orbits only, and every value is forced and every
    constraint checked by definition.  One node per step entered and one
    per candidate.
    Oracle for the sliced sweep's verdicts and node counts."""
    every = list(all_relations(k))
    first = canonical_relations_by_scan(k)
    values = [None] * len(plan)

    def holds(equations, inclusions) -> bool:
        return (all(oracles.included(values[a], values[b]) == expected
                    for a, b, expected in inclusions)
                and all(oracles.apply(op, values[a], values[b]) == values[c]
                        for op, a, b, c in equations))

    branches = []
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
            values[c] = oracles.apply(op, values[a], values[b])
            if holds(equations, inclusions):
                i += 1
                continue
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


def counted_lanes_by_popcount(masks) -> list[tuple[int, int]]:
    """Each set lane of masks[-1], ascending, with the popcount over all
    masks of mask & ((2 << lane) - 1), the set bits at lanes up to it.
    Oracle for the node counts verifier.run_plan hands on with its
    survivors."""
    lanes = [lane for lane, bit in enumerate(reversed(bin(masks[-1])[2:])) if bit == "1"]
    return [(lane, sum((m & ((2 << lane) - 1)).bit_count() for m in masks)) for lane in lanes]


def sequent_plan(text: str) -> tuple:
    """The plan lambek.countermodel_search runs for the sequent text, read
    off its definition: the atoms in sorted order, then each distinct
    subformula in post-order, left operand first, forced by its connective's
    operation, the antecedent being its left-nested product; the goal is the
    product's value not inside the succedent's."""
    s = lambek.parse_sequent(text)
    unknown = {lambek.Atom(name): i for i, name in enumerate(lambek.sequent_atoms(s))}
    equations = []

    def index(f) -> int:
        if f not in unknown:
            a, b = index(f.left), index(f.right)
            equations.append((lambek.CONNECTIVE_OPERATION[type(f)], a, b, len(unknown)))
            unknown[f] = len(unknown)
        return unknown[f]

    goal = (index(functools.reduce(lambek.Prod, s.antecedent)), index(s.succedent), False)
    return plan_search(len(unknown), equations, [goal])


def structure_plan(S) -> tuple:
    """The plan verifier.search_representation runs for the structure S: an
    equation per entry of each operation table, an inclusion or
    non-inclusion per pair of elements."""
    n = len(S.names)
    equations = [(name, a, b, table[a][b])
                 for name, table in S.operations for a in range(n) for b in range(n)]
    inclusions = [(a, b, S.le(a, b)) for a in range(n) for b in range(n)]
    return plan_search(n, equations, inclusions)


def naive_countermodel(s: lambek.Sequent, max_base: int):
    """The first model over bases 1..max_base that refutes the sequent, found
    by evaluating it by definition under every valuation in product order:
    atoms sorted, relations ascending by encoding, the first atom over
    base-permutation orbit representatives.  Oracle for
    lambek.countermodel_search."""
    atoms = lambek.sequent_atoms(s)
    for k in range(1, max_base + 1):
        rest = list(all_relations(k))
        for values in itertools.product(canonical_relations_by_scan(k),
                                        *[rest] * (len(atoms) - 1)):
            if not oracles.sequent_holds(s, dict(zip(atoms, values))):
                return lambek_model(k, tuple(zip(atoms, values)))
    return Exhausted(max_base)


def _rule_premises(rule: str, ant: tuple, succ) -> list[list[tuple]]:
    """Every premise list, as (antecedent, succedent) pairs, from which the
    Lambek rule derives ant |- succ; empty when the rule cannot conclude it."""
    if rule == "ax":
        return [[]] if ant == (succ,) else []
    if rule == "r-under":
        return [[((succ.left,) + ant, succ.right)]] if isinstance(succ, lambek.Under) else []
    if rule == "r-over":
        return [[(ant + (succ.right,), succ.left)]] if isinstance(succ, lambek.Over) else []
    if rule == "r-prod":
        if not isinstance(succ, lambek.Prod):
            return []
        return [[(ant[:i], succ.left), (ant[i:], succ.right)] for i in range(1, len(ant))]
    options = []
    for i, f in enumerate(ant):
        if rule == "l-prod" and isinstance(f, lambek.Prod):
            options.append([(ant[:i] + (f.left, f.right) + ant[i + 1:], succ)])
        elif rule == "l-under" and isinstance(f, lambek.Under):
            for j in range(i):
                options.append([(ant[j:i], f.left), (ant[:j] + (f.right,) + ant[i + 1:], succ)])
        elif rule == "l-over" and isinstance(f, lambek.Over):
            for j in range(i + 2, len(ant) + 1):
                options.append([(ant[i + 1:j], f.right), (ant[:i] + (f.left,) + ant[j:], succ)])
    return options


def invalid_proof_step(proof: lambek.ProofNode) -> lambek.ProofNode | None:
    """The first node, in preorder, whose sequent does not follow by its rule
    from its premises' sequents, or None if every step is a rule instance.
    Re-checks lambek.prove's trees from the calculus alone."""
    stack = [proof]
    while stack:
        node = stack.pop()
        given = [(p.sequent.antecedent, p.sequent.succedent) for p in node.premises]
        if given not in _rule_premises(node.rule, node.sequent.antecedent, node.sequent.succedent):
            return node
        stack.extend(reversed(node.premises))
    return None


def equivalence(classes, base: int) -> Relation:
    """The equivalence relation with the given classes over the base."""
    return rel.relation_from_pairs(base, [(x, y) for c in classes for x in c for y in c])


# generator families over 9 points, whose codes fill fields of 11 bytes,
# wider than any native int: the equivalence with classes 0-4 and 5-8 with
# the identity (4 members in the closure), and with the empty relation (3)
BASE_9_FAMILIES = (
    [equivalence((range(5), range(5, 9)), 9), equivalence([[x] for x in range(9)], 9)],
    [rel.empty_relation(9), equivalence((range(5), range(5, 9)), 9)],
)


def check_representation_pairwise(S, I) -> tuple[tuple[str, tuple[int, ...] | None], ...]:
    """The four-condition check read off the definitions, one ordered pair
    of elements at a time in lexicographic order: each condition as a
    (name, witness) pair, the witness None when the condition holds.  Oracle
    for verifier.check_representation, which evaluates whole rows per key
    and whose Checks compare equal to these pairs."""
    n = len(S.comp)
    R = I.relations

    def order_condition():
        for a in range(n):
            for b in range(n):
                if S.le(a, b) != oracles.included(R[a], R[b]):
                    return ("order-iff", (a, b))
        return ("order-iff", None)

    def table_condition(name, table):
        for a in range(n):
            for b in range(n):
                expected = R[table[a][b]]
                actual = oracles.apply(name, R[a], R[b])
                if expected != actual:
                    return (name, (a, b, *min(oracles.pairs(expected) ^ oracles.pairs(actual))))
        return (name, None)

    return (order_condition(),) + tuple(table_condition(name, table)
                                        for name, table in S.operations)
