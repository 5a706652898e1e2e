"""Deterministic corpus of algebras shared across the test suite.

The n <= 3 part is the full labeled enumeration.  The n = 4 part mixes
construction strategies so the completion and representation machinery sees
chains, direct products, a group, relation closures, and zero-adjoined
semigroups; the list is deterministic and deduplicated up to isomorphism.
"""

from __future__ import annotations

import itertools

from resq import algebra, lambek
from resq import relations as rel
from resq.algebra import (
    Check,
    FiniteResiduatedSemigroup,
    Report,
    _associative_tables,
    _partial_orders,
    infer_residuals,
    monotonicity,
)
from resq.completion import _subset_sort_key
from resq.errors import NoResidualError
from resq.pointalg import ATOM_EQ, ATOM_GT, ATOM_LT
from resq.relations import Interpretation
from resq.verifier import Exhausted, relational_ops

C2_TEXT = "elements: a b\nleq: a<=b\ncomp: a;a=a a;b=a b;a=a b;b=a\n"

N4_CORPUS_SIZE = 24


def make_c2() -> FiniteResiduatedSemigroup:
    return algebra.parse_algebra(C2_TEXT)


def closed_sets_by_scan(A: FiniteResiduatedSemigroup) -> tuple[int, ...]:
    """Reference enumeration over all 2^n subsets; oracle for completion.closed_sets."""
    family = [x for x in range(1 << A.n) if closure_by_definition(x, A) == x]
    return tuple(sorted(family, key=_subset_sort_key(A.names)))


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


def large_quantale_algebras() -> list[FiniteResiduatedSemigroup]:
    return [
        algebra.generate_concrete(base, generators=list(gens), max_relations=64)[0]
        for base, gens in LARGE_QUANTALE_FAMILIES
    ]


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


def naive_countermodel(s: lambek.Sequent, max_base: int):
    """The first model over bases 1..max_base that refutes the sequent, found
    by evaluating it under every valuation in product order: atoms sorted,
    relations ascending by encoding, the first atom over base-permutation
    orbit representatives.  Oracle for lambek.countermodel_search."""
    atoms = lambek.sequent_atoms(s)
    for k in range(1, max_base + 1):
        rest = list(rel.all_relations(k))
        for values in itertools.product(rel.canonical_relations(k), *[rest] * (len(atoms) - 1)):
            model = lambek_model(k, tuple(zip(atoms, values)))
            if not lambek.evaluate(s, model):
                return model
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


def check_representation_pairwise(S, I) -> Report:
    """The four-condition check with one kernel call per ordered pair of
    elements, scanning pairs in lexicographic order.  Oracle for
    verifier.check_representation, which evaluates whole rows per key."""
    n = len(S.comp)
    R = I.relations

    def order_condition():
        for a in range(n):
            for b in range(n):
                if S.le(a, b) != rel.rel_subset(R[a], R[b]):
                    return Check("order-iff", (a, b))
        return Check("order-iff", None)

    def table_condition(name, table, op):
        for a in range(n):
            for b in range(n):
                expected = R[table[a][b]]
                actual = op(R[a], R[b])
                if expected != actual:
                    x, y = min(set(rel.relation_pairs(expected)) ^ set(rel.relation_pairs(actual)))
                    return Check(name, (a, b, x, y))
        return Check(name, None)

    ops = relational_ops()
    return Report((order_condition(),) + tuple(
        table_condition(name, table, ops[name]) for name, table in S.operations
    ))
