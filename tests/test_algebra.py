import functools
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracles
from corpus import (C2_TEXT, a4_generators, canonical_key, check_representation_pairwise,
                    default_names, enumerate_algebras, serialize)
from resq import algebra, completion
from resq.algebra import Check, FiniteResiduatedSemigroup, Report
from resq.errors import (ClosureSizeError, NoResidualError, NotResiduatedError, ParseError,
                         ResourceLimitError)
from resq import relations as rel
from resq import verifier

ONE_ELEMENT = "elements: x\nleq: x<=x\ncomp: x;x=x\n"


def test_parse_one_element():
    A = algebra.parse_algebra(ONE_ELEMENT)
    assert A.names == ("x",)
    assert A.comp == ((0,),)
    assert A.lres == ((0,),) and A.rres == ((0,),)


def test_parse_c2_infers_residuals(c2):
    b = c2.names.index("b")
    assert all(c2.lres[i][j] == b for i in range(2) for j in range(2))
    assert all(c2.rres[i][j] == b for i in range(2) for j in range(2))


def test_parse_unknown_element():
    with pytest.raises(ParseError, match="unknown element"):
        algebra.parse_algebra("elements: x y\nleq:\ncomp: x;y=z x;x=x y;x=x y;y=x\n")


def test_parse_rejects_empty_carrier():
    with pytest.raises(ParseError, match="no elements"):
        algebra.parse_algebra("elements:\n")


def test_parse_missing_comp_entry():
    with pytest.raises(ParseError, match="missing comp entry"):
        algebra.parse_algebra("elements: x y\ncomp: x;x=x\n")


def test_parse_duplicate_comp_entry():
    with pytest.raises(ParseError, match="duplicate"):
        algebra.parse_algebra("elements: x\ncomp: x;x=x x;x=x\n")


def test_parse_duplicate_names_are_merged():
    A = algebra.parse_algebra("elements: x x\ncomp: x;x=x\n")
    assert A.names == ("x",)


def test_parse_accepts_explicit_reflexive_pairs_and_split_blocks():
    text = (
        "elements: a b\n"
        "leq: a<=a a<=b\n"
        "comp: a;a=a a;b=a\n"
        "comp: b;a=a b;b=a   # blocks may continue on later lines\n"
    )
    A = algebra.parse_algebra(text)
    assert algebra.validate(A).valid


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        algebra.parse_algebra("elements: x\nleq: x<y\ncomp: x;x=x\n")
    assert err.value.line == 2


@pytest.mark.parametrize("token", ["x=x;x", "x;x", "x=x", "=x;x"])
def test_parse_malformed_table_token(token):
    with pytest.raises(ParseError, match="expected x;y=z") as err:
        algebra.parse_algebra(f"elements: x\ncomp: {token}\n")
    assert err.value.line == 2


def test_parse_residual_cross_check():
    bad = C2_TEXT + "lres: a\\a=a a\\b=b b\\a=b b\\b=b\n"
    with pytest.raises(NotResiduatedError, match="disagrees") as err:
        algebra.parse_algebra(bad)
    assert not isinstance(err.value, ParseError)


def test_explicit_residuals_accepted_when_consistent():
    text = C2_TEXT + "lres: a\\a=b a\\b=b b\\a=b b\\b=b\nrres: a/a=b a/b=b b/a=b b/b=b\n"
    A = algebra.parse_algebra(text)
    assert algebra.validate(A).valid


def test_validate_one_element():
    assert algebra.validate(algebra.parse_algebra(ONE_ELEMENT)).valid


def test_validate_c2(c2):
    report = algebra.validate(c2)
    assert report.valid and report.failures == ()


def test_validate_mutated_c2_residuation_witness(c2):
    lres = [list(row) for row in c2.lres]
    lres[0][0] = 0  # force a\a = a
    mutated = FiniteResiduatedSemigroup(
        c2.names, c2.leq, c2.comp, tuple(tuple(r) for r in lres), c2.rres
    )
    report = algebra.validate(mutated)
    assert not report.valid
    assert ("residuation", (0, 1, 0)) in report.failures  # witness (a, b, a)


def reevaluate_witness(A, axiom, witness):
    """Check a reported witness directly against the tables."""
    if axiom == "reflexivity":
        (i,) = witness
        return not A.le(i, i)
    if axiom == "antisymmetry":
        i, j = witness
        return i != j and A.le(i, j) and A.le(j, i)
    if axiom == "transitivity":
        i, j, k = witness
        return A.le(i, j) and A.le(j, k) and not A.le(i, k)
    if axiom == "associativity":
        a, b, c = witness
        return A.comp[A.comp[a][b]][c] != A.comp[a][A.comp[b][c]]
    if axiom == "monotonicity":
        a, b, c = witness
        return A.le(a, b) and (
            not A.le(A.comp[a][c], A.comp[b][c]) or not A.le(A.comp[c][a], A.comp[c][b])
        )
    if axiom == "residuation":
        a, b, c = witness
        clauses = (A.le(b, A.lres[a][c]), A.le(A.comp[a][b], c), A.le(a, A.rres[c][b]))
        return len(set(clauses)) > 1
    raise AssertionError(f"unknown axiom {axiom}")


AXIOM_ARITY = (
    ("reflexivity", 1),
    ("antisymmetry", 2),
    ("transitivity", 3),
    ("associativity", 3),
    ("monotonicity", 3),
    ("residuation", 3),
)


def assert_first_witnesses(A):
    """Each reported witness is the lexicographically first violating tuple
    of its axiom, and every violated axiom is reported, in validate's order."""
    report = algebra.validate(A)
    assert report.valid == (not report.failures)
    for axiom, witness in report.failures:
        assert reevaluate_witness(A, axiom, witness), (axiom, witness)
    expected = []
    for axiom, arity in AXIOM_ARITY:
        first = next(
            (
                w
                for w in itertools.product(range(A.n), repeat=arity)
                if reevaluate_witness(A, axiom, w)
            ),
            None,
        )
        if first is not None:
            expected.append((axiom, first))
    assert list(report.failures) == expected


def _random_structure(rng, reflexive):
    names = default_names(3)
    leq = tuple(rng.randrange(8) | (1 << i if reflexive else 0) for i in range(3))
    tables = [
        tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        for _ in range(3)
    ]
    return FiniteResiduatedSemigroup(names, leq, *tables)


def test_validation_witnesses_reevaluate():
    # every reported witness must itself violate the named axiom and be the
    # first tuple that does, across a deterministic sample of mostly-invalid
    # structures
    rng = random.Random(99)
    for _ in range(500):
        assert_first_witnesses(_random_structure(rng, reflexive=True))


def test_validation_witnesses_on_arbitrary_orders():
    rng = random.Random(7)
    for _ in range(200):
        assert_first_witnesses(_random_structure(rng, reflexive=False))


def test_join_laws_report_first_violation():
    # join_lub and distributivity, which validate does not read, also return
    # the first violating tuple
    def le(leq, i, j):
        return bool(leq[i] >> j & 1)

    def lub_fails(leq, join, i, j, k):
        return le(leq, join[i][j], k) != (le(leq, i, k) and le(leq, j, k))

    def distributivity_fails(join, comp, a, b, c):
        bc = join[b][c]
        return (comp[a][bc] != join[comp[a][b]][comp[a][c]]
                or comp[bc][a] != join[comp[b][a]][comp[c][a]])

    rng = random.Random(5)
    for _ in range(300):
        leq = tuple(rng.randrange(8) | 1 << i for i in range(3))
        join, comp = (
            tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
            for _ in range(2)
        )
        triples = list(itertools.product(range(3), repeat=3))
        assert algebra.join_lub(leq, join) == next(
            (t for t in triples if lub_fails(leq, join, *t)), None
        )
        assert algebra.distributivity(join, comp) == next(
            (t for t in triples if distributivity_fails(join, comp, *t)), None
        )


def test_order_reflection_reports_first_violation():
    # the first (a, b) with a not <= b and a;q <= b;q for every q
    def le(leq, i, j):
        return bool(leq[i] >> j & 1)

    rng = random.Random(7)
    witnesses = set()
    for _ in range(300):
        leq = rng.choice(corpus._partial_orders(3))
        comp = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        expected = next(
            (
                (a, b)
                for a, b in itertools.product(range(3), repeat=2)
                if not le(leq, a, b) and all(le(leq, comp[a][q], comp[b][q]) for q in range(3))
            ),
            None,
        )
        assert algebra.order_reflection(leq, comp) == expected, (leq, comp)
        witnesses.add(expected is None)
    assert witnesses == {True, False}


def test_no_residual_error_names_elements():
    # antichain {p, q} with p;x = p: {b : p;b <= p} = {p, q} has no maximum
    leq = (0b01, 0b10)
    comp = ((0, 0), (0, 1))
    with pytest.raises(NoResidualError) as named:
        algebra.infer_residuals(leq, comp, ("p", "q"))
    assert str(named.value) == (
        "no left residual for pair (p, p); candidate set [p, q] has no maximum"
    )
    assert (named.value.left, named.value.right, named.value.candidates) == (0, 0, {0, 1})
    with pytest.raises(NoResidualError, match=r"pair \(0, 0\); candidate set \[0, 1\]"):
        algebra.infer_residuals(leq, comp)


def test_validate_reports_each_broken_axiom():
    # order is irreflexive and non-transitive, composition not associative
    A = FiniteResiduatedSemigroup(
        names=("x", "y"),
        leq=(0b10, 0b01),
        comp=((1, 0), (0, 0)),
        lres=((0, 0), (0, 0)),
        rres=((0, 0), (0, 0)),
    )
    report = algebra.validate(A)
    assert not report.valid
    assert not report.condition("reflexivity").passed


def test_infer_residuals_one_element():
    lres, rres = algebra.infer_residuals((1,), ((0,),))
    assert lres == ((0,),) and rres == ((0,),)


def test_infer_residuals_c2(c2):
    lres, rres = algebra.infer_residuals(c2.leq, c2.comp)
    assert lres == c2.lres and rres == c2.rres


def test_infer_residuals_antichain_failure():
    # 2-element antichain {p, q} with p;x = x;p = p and q;q = q
    leq = (0b01, 0b10)
    comp = ((0, 0), (0, 1))
    with pytest.raises(NoResidualError):
        algebra.infer_residuals(leq, comp)
    # the left division of q by p has no candidates at all: {z : p;z <= q} = {}
    assert [z for z in range(2) if leq[comp[0][z]] >> 1 & 1] == []


def residual_outcome(infer, leq, comp):
    """Both residual tables, or the payload of the NoResidualError raised."""
    try:
        return infer(leq, comp)
    except NoResidualError as exc:
        return (exc.left, exc.right, exc.side, exc.candidates)


def random_partial_order(rng, n):
    """The transitive closure of a random relation that points up a random
    linear order, made reflexive."""
    rank = rng.sample(range(n), n)
    rows = [1 << i for i in range(n)]
    for i, j in itertools.permutations(range(n), 2):
        if rank[i] < rank[j] and rng.random() < 0.4:
            rows[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return tuple(rows)


def test_infer_residuals_match_definition():
    # the memo of maxima must not change which residual fails first, nor its
    # candidate set
    rng = random.Random(5)
    outcomes = set()
    for _ in range(1200):
        n = rng.randint(1, 6)
        leq = random_partial_order(rng, n)
        assert algebra.antisymmetry(leq) is None and algebra.transitivity(leq) is None
        comp = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        expected = residual_outcome(corpus.infer_residuals_by_loops, leq, comp)
        assert residual_outcome(algebra.infer_residuals, leq, comp) == expected, (leq, comp)
        outcomes.add((n, len(expected)))
    # residuals go missing at every size above one; random tables of six
    # elements have no residuals, smaller ones do
    assert {n for n, k in outcomes if k == 4} == {2, 3, 4, 5, 6}
    assert {n for n, k in outcomes if k == 2} == {1, 2, 3, 4, 5}


def count_paths(monkeypatch) -> dict:
    """Wrap the two laws of join_semigroup_laws that have two paths: the
    runs of the distributivity loop, which runs only when the candidate masks
    do not show that the law holds, and of associativity over the
    join-irreducibles G and over every element."""
    calls = {"distributivity": 0, "associativity over G": 0, "associativity": 0}
    distributivity, associativity = algebra.distributivity, algebra.associativity

    def counted_distributivity(join, comp):
        calls["distributivity"] += 1
        return distributivity(join, comp)

    def counted_associativity(comp, G=None):
        calls["associativity" if G is None else "associativity over G"] += 1
        return associativity(comp, G)

    monkeypatch.setattr(algebra, "distributivity", counted_distributivity)
    monkeypatch.setattr(algebra, "associativity", counted_associativity)
    return calls


def test_infer_residuals_match_loops_on_large_quantales(monkeypatch):
    # the candidate sets of 16- to 50-element quantales read off one
    # transposition: the same tables, and after one cell of the composition
    # is moved, the same first missing residual with the same candidates.
    # Residuation, the distributivity of join_semigroup_laws and order
    # reflection read the same pass and agree with their scalar oracles.
    # Distributivity is decided by the masks alone on some tables and by its
    # loop on others; the associativity of join_semigroup_laws agrees with
    # its oracle too, decided over the join-irreducibles alone on some tables
    # and over every element on others
    algebras = corpus.large_quantale_algebras() + [corpus.quantale_50_model()[0]]
    quantales = [completion.build_quantale(A) for A in algebras]
    loops = count_paths(monkeypatch)
    sizes = []
    missing = 0
    cases = 0
    for Q in quantales:
        sizes.append(Q.size)
        lres, rres = corpus.infer_residuals_by_loops(Q.leq, Q.comp)
        assert algebra.infer_residuals(Q.leq, Q.comp) == (lres, rres)
        rng = random.Random(Q.size)
        # the quantale, its lattice with the zero product (where the order is
        # not reflected: a;q = b;q for all a, b) and one-cell mutations
        comps = [Q.comp, ((Q.bottom,) * Q.size,) * Q.size]
        for _ in range(12):
            a, b, c = rng.randrange(Q.size), rng.randrange(Q.size), rng.randrange(Q.size)
            comp = tuple(row[:b] + (c,) + row[b + 1:] if i == a else row
                         for i, row in enumerate(Q.comp))
            outcome = residual_outcome(algebra.infer_residuals, Q.leq, comp)
            assert outcome == residual_outcome(corpus.infer_residuals_by_loops, Q.leq, comp)
            missing += len(outcome) == 4
            comps.append(comp)
        for comp in comps:
            masks = algebra.CandidateMasks(Q.leq, comp)
            assert (algebra.residuation(Q.leq, comp, lres, rres, masks)
                    == corpus.residuation_by_loops(Q.leq, comp, lres, rres))
            laws = algebra.join_semigroup_laws(Q.leq, Q.sup, comp, masks)
            assert (laws.condition("distributivity").witness
                    == corpus.distributivity_by_loops(Q.sup, comp))
            assert laws.condition("associativity").witness == corpus.associativity_by_loops(comp)
            assert (algebra.order_reflection(Q.leq, comp, masks)
                    == corpus.order_reflection_by_loops(Q.leq, comp))
            cases += 1
    assert sizes == [16, 20, 32, 50]
    assert missing >= 12
    assert cases == 56
    # each path ran on some tables and not on others
    assert all(0 < count < cases for count in loops.values()), loops


def test_distributivity_lemma_needs_each_precondition(monkeypatch):
    # tables whose candidate sets are principal lower cones but whose join
    # is not a least upper bound, or whose order is not antisymmetric, and
    # tables with an empty candidate set: the masks do not decide, the row
    # loop does, and it agrees with the scalar oracle
    Q = completion.build_quantale(corpus.large_quantale_algebras()[0])
    n = Q.size

    # one join moved: (top v bottom) is bottom, and top;(top v bottom) is
    # then top;bottom where top;top v top;bottom is top;top
    top, bottom = Q.top, Q.bottom
    assert Q.comp[top][top] != Q.comp[top][bottom]
    broken_join = tuple(row[:bottom] + (bottom,) + row[bottom + 1:] if i == top else row
                        for i, row in enumerate(Q.sup))

    # a copy x' of x = top;top: x' lies above and below exactly what x does,
    # products and joins read x' as x, and one product top;top is x'
    x = Q.comp[top][top]
    up = [row | (row >> x & 1) << n for row in Q.leq]
    twin_leq = tuple(up + [up[x]])
    twin = list(range(n)) + [x]
    twin_comp = [[Q.comp[i][j] for j in twin] for i in twin]
    twin_comp[top][top] = n
    twin_comp = tuple(map(tuple, twin_comp))
    twin_join = tuple(tuple(Q.sup[i][j] for j in twin) for i in twin)

    # a chain of 8 with a;b = max(a, b, 1), which distributes over max
    chain_leq = tuple(((1 << 8) - 1) >> i << i for i in range(8))
    chain_comp = tuple(tuple(max(a, b, 1) for b in range(8)) for a in range(8))
    chain_join = tuple(tuple(max(a, b) for b in range(8)) for a in range(8))

    cases = [
        ("join_lub", Q.leq, broken_join, Q.comp),
        ("antisymmetry", twin_leq, twin_join, twin_comp),
        ("principal", chain_leq, chain_join, chain_comp),
    ]
    outcomes = {}
    for failing, leq, join, comp in cases:
        masks = algebra.CandidateMasks(leq, comp)
        held = {
            "reflexivity": algebra.reflexivity(leq) is None,
            "antisymmetry": algebra.antisymmetry(leq) is None,
            "join_lub": algebra.join_lub(leq, join) is None,
            "principal": algebra._principal_candidates(masks),
        }
        assert [law for law, holds in held.items() if not holds] == [failing]
        loops = count_paths(monkeypatch)
        check = algebra.join_semigroup_laws(leq, join, comp, masks).condition("distributivity")
        assert loops["distributivity"] == 1
        assert check.witness == corpus.distributivity_by_loops(join, comp)
        outcomes[failing] = check.passed
        monkeypatch.undo()
    # a;0 is never below 0 in the chain: its candidate set is empty
    assert 0 in masks.read()[0][0][:-1]
    assert outcomes == {"join_lub": False, "antisymmetry": False, "principal": True}


def test_associativity_lemma_needs_distributivity(monkeypatch):
    # the lattice 0 < a, b < t with t;t = a, t;a = b and every other product
    # 0: the products of the join-irreducibles 0, a and b are all 0, so
    # associativity holds over them, but t;(a v b) = a is not t;a v t;b = b
    # and (t;t);t = 0 is not t;(t;t) = b.  Without distributivity the check
    # over the join-irreducibles is not made, and associativity over every
    # element decides
    zero, a, b, t = range(4)
    leq = (0b1111, 0b1010, 0b1100, 0b1000)
    join = ((zero, a, b, t), (a, a, t, t), (b, t, b, t), (t, t, t, t))
    comp = ((zero,) * 4, (zero,) * 4, (zero,) * 4, (zero, b, zero, a))
    G = algebra.join_irreducibles(leq)
    assert G == (zero, a, b)
    assert algebra.associativity(comp, G) is None is corpus.associativity_by_loops(comp, G)
    loops = count_paths(monkeypatch)
    laws = algebra.join_semigroup_laws(leq, join, comp)
    assert loops == {"distributivity": 1, "associativity over G": 0, "associativity": 1}
    assert [check.name for check in laws.failures] == ["associativity", "distributivity"]
    assert laws.condition("associativity").witness == (t, t, t) == corpus.associativity_by_loops(comp)
    assert (laws.condition("distributivity").witness == (a, a, b)
            == corpus.distributivity_by_loops(join, comp))


def test_join_irreducibles_match_definition(corpus_all):
    # the library's G is the oracle's on every corpus quantale and on the
    # large ones, the bottom included, and every element is the join of the
    # members of G below it
    quantales = [completion.build_quantale(A) for A in corpus_all]
    large = [completion.build_quantale(A) for A in corpus.large_quantale_algebras()]
    large.append(corpus.quantale_50_model()[1])
    for Q in quantales + large:
        G = algebra.join_irreducibles(Q.leq)
        assert G == corpus.join_irreducibles_by_definition(Q.leq, Q.sup)
        assert Q.bottom in G
        for x in range(Q.size):
            assert corpus.sup_by_fold(Q, [g for g in G if Q.le(g, x)]) == x
    assert [(len(algebra.join_irreducibles(Q.leq)), Q.size) for Q in large] == [
        (5, 16), (10, 20), (6, 32), (10, 50)]


def test_small_completions_read_the_masks_first(monkeypatch, corpus_all):
    # the completions of the corpus algebras, of 1 to 6 elements, through
    # the pipeline's law checks: the candidate masks show that distributivity
    # holds on every one, so its loop never runs, and associativity is
    # decided over the join-irreducibles alone; residuation holds on every
    # one and order reflection fails on 68, and every witness is the oracle's
    loops = count_paths(monkeypatch)
    quantales = [completion.build_quantale(A) for A in corpus_all]
    residuals = [completion.quantale_residuals(Q) for Q in quantales]
    reflections = [algebra.order_reflection(Q.leq, Q.comp, Q.candidate_masks) for Q in quantales]
    assert loops == {"distributivity": 0, "associativity over G": 125, "associativity": 0}
    assert len(quantales) == 125
    assert {Q.size for Q in quantales} == {1, 2, 3, 4, 5, 6}
    for Q, (lres, rres), reflection in zip(quantales, residuals, reflections):
        laws = algebra.join_semigroup_laws(Q.leq, Q.sup, Q.comp, Q.candidate_masks)
        assert laws.condition("distributivity").witness is None
        assert corpus.distributivity_by_loops(Q.sup, Q.comp) is None
        assert (lres, rres) == corpus.infer_residuals_by_loops(Q.leq, Q.comp)
        assert corpus.residuation_by_loops(Q.leq, Q.comp, lres, rres) is None
        assert reflection == corpus.order_reflection_by_loops(Q.leq, Q.comp)
    assert sum(reflection is not None for reflection in reflections) == 68


def assert_laws_match_loops(leq, comp, join, lres, rres):
    """Each cubic law and the residual inference agree with its scalar
    oracle: the same first witness, or None; the same tables, or the same
    missing residual.  The distributivity and associativity of
    join_semigroup_laws, read first off the masks and the join-irreducibles,
    name the oracles' witnesses too."""
    assert algebra.associativity(comp) == corpus.associativity_by_loops(comp)
    laws = algebra.join_semigroup_laws(leq, join, comp)
    assert laws.condition("distributivity").witness == corpus.distributivity_by_loops(join, comp)
    assert laws.condition("associativity").witness == corpus.associativity_by_loops(comp)
    assert (algebra.residuation(leq, comp, lres, rres)
            == corpus.residuation_by_loops(leq, comp, lres, rres))
    assert algebra.distributivity(join, comp) == corpus.distributivity_by_loops(join, comp)
    assert algebra.order_reflection(leq, comp) == corpus.order_reflection_by_loops(leq, comp)
    assert (residual_outcome(algebra.infer_residuals, leq, comp)
            == residual_outcome(corpus.infer_residuals_by_loops, leq, comp))


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 8))
    index = st.integers(0, n - 1)
    table = st.tuples(*[st.tuples(*[index] * n)] * n)
    if draw(st.booleans()):
        leq = random_partial_order(draw(st.randoms(use_true_random=False)), n)
    else:
        leq = draw(st.tuples(*[st.integers(0, (1 << n) - 1)] * n))
    return (leq,) + tuple(draw(table) for _ in range(4))


@given(random_tables())
@settings(max_examples=300)
def test_laws_match_scalar_loops_on_random_tables(tables):
    assert_laws_match_loops(*tables)


@pytest.mark.parametrize("leq", [(0,), (1,)])
def test_laws_match_scalar_loops_on_one_element(leq):
    # one index: an itemgetter returns the bare entry, not a one-tuple
    table = ((0,),)
    assert_laws_match_loops(leq, table, table, table, table)
    assert algebra.associativity(table) is None


@st.composite
def tables_and_index_sets(draw):
    """A table of 1 to 8 elements, random or associative (a relabeled
    semilattice, cyclic group, left-zero band or projection onto an
    idempotent map) with at most one cell changed, and ascending indices:
    none, one, all of them or any subset."""
    n = draw(st.integers(1, 8))
    index = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["random", "max", "sum", "left", "idempotent"]))
    if kind == "random":
        comp = [list(draw(st.tuples(*[index] * n))) for _ in range(n)]
    else:
        label = draw(st.permutations(range(n)))
        kept = sorted(draw(st.sets(index, min_size=1)))
        f = [x if x in kept else draw(st.sampled_from(kept)) for x in range(n)]  # f∘f = f
        rule = {"max": max, "sum": lambda x, y: (x + y) % n,
                "left": lambda x, y: x, "idempotent": lambda x, y: f[x]}[kind]
        comp = [[label[rule(x, y)] for y in range(n)] for x in range(n)]
        comp = [[comp[label.index(x)][label.index(y)] for y in range(n)] for x in range(n)]
        if draw(st.booleans()):
            comp[draw(index)][draw(index)] = draw(index)
    subsets = st.sets(index, min_size=min(n, 2)).map(sorted).map(tuple)
    G = draw(st.one_of(subsets, st.just(tuple(range(n))), index.map(lambda x: (x,)), st.just(())))
    return tuple(map(tuple, comp)), G


@given(tables_and_index_sets())
@settings(max_examples=400)
def test_associativity_over_index_sets_matches_scalar_loops(case):
    # associativity over G names the first witness over G^3, in the order
    # of G, as the scalar loop over G^3 does, and over every element when G
    # is None; the check over G is what join_semigroup_laws reads
    comp, G = case
    assert algebra.associativity(comp, G) == corpus.associativity_by_loops(comp, G)
    assert algebra.associativity(comp) == corpus.associativity_by_loops(comp)


@functools.lru_cache(maxsize=None)
def quantale_tables() -> tuple:
    """(leq, comp, sup, lres, rres) of the completions of the large quantale
    algebras and of C2, and of the one-element algebra."""
    out = []
    for A in corpus.large_quantale_algebras() + [corpus.make_c2(), algebra.parse_algebra(ONE_ELEMENT)]:
        Q = completion.build_quantale(A)
        out.append((Q.leq, Q.comp, Q.sup) + completion.quantale_residuals(Q))
    return tuple(out)


@st.composite
def mutated_quantale_tables(draw):
    tables = list(draw(st.sampled_from(quantale_tables())))
    n = len(tables[0])
    which = draw(st.integers(0, 4))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if which == 0:  # flip one pair of the order
        tables[0] = tables[0][:i] + (tables[0][i] ^ 1 << j,) + tables[0][i + 1:]
    else:
        rows = list(tables[which])
        rows[i] = rows[i][:j] + (draw(st.integers(0, n - 1)),) + rows[i][j + 1:]
        tables[which] = tuple(rows)
    return tuple(tables)


@given(mutated_quantale_tables())
@settings(max_examples=100)
def test_laws_match_scalar_loops_on_mutated_quantales(tables):
    # a single changed cell of a law-abiding table: the row that holds it
    # mismatches late, after many rows that agree
    assert_laws_match_loops(*tables)


@given(mutated_quantale_tables())
@settings(max_examples=100)
def test_masked_laws_match_scalar_loops_on_mutated_quantales(tables):
    # the laws of one table read one candidate-mask pass: residuation, order
    # reflection and the distributivity of join_semigroup_laws, with a cell
    # of the order or of a table changed
    leq, comp, join, lres, rres = tables
    masks = algebra.CandidateMasks(leq, comp)
    assert (algebra.residuation(leq, comp, lres, rres, masks)
            == corpus.residuation_by_loops(leq, comp, lres, rres))
    laws = algebra.join_semigroup_laws(leq, join, comp, masks)
    assert laws.condition("distributivity").witness == corpus.distributivity_by_loops(join, comp)
    assert laws.condition("associativity").witness == corpus.associativity_by_loops(comp)
    assert algebra.order_reflection(leq, comp, masks) == corpus.order_reflection_by_loops(leq, comp)
    assert (residual_outcome(functools.partial(algebra.infer_residuals, masks=masks), leq, comp)
            == residual_outcome(corpus.infer_residuals_by_loops, leq, comp))


def test_enumerate_one_element():
    assert len(list(enumerate_algebras(1))) == 1


def naive_enumerate_two():
    """Independent double-loop enumerator over all order/composition tables."""
    count = 0
    for leq in itertools.product(range(4), repeat=2):
        order = {(i, j) for i in range(2) for j in range(2) if leq[i] >> j & 1}
        if not all((i, i) in order for i in range(2)):
            continue
        if (0, 1) in order and (1, 0) in order:
            continue
        for flat in itertools.product(range(2), repeat=4):
            comp = (flat[0:2], flat[2:4])
            if any(
                comp[comp[a][b]][c] != comp[a][comp[b][c]]
                for a in range(2)
                for b in range(2)
                for c in range(2)
            ):
                continue
            if any(
                (a, b) in order and ((comp[a][c], comp[b][c]) not in order or (comp[c][a], comp[c][b]) not in order)
                for a in range(2)
                for b in range(2)
                for c in range(2)
            ):
                continue
            ok = True
            for x in range(2):
                for z in range(2):
                    cands = [y for y in range(2) if (comp[x][y], z) in order]
                    if not any(all((c, m) in order for c in cands) for m in cands):
                        ok = False
                    cands = [y for y in range(2) if (comp[y][x], z) in order]
                    if not any(all((c, m) in order for c in cands) for m in cands):
                        ok = False
            if ok:
                count += 1
    return count


def test_enumerate_two_matches_naive_count():
    algs = list(enumerate_algebras(2))
    assert len(algs) == naive_enumerate_two() == 6


def test_enumerate_outputs_validate(corpus_small):
    for A in corpus_small:
        assert algebra.validate(A).valid


def test_inferred_residuals_never_fail_validation():
    # over every order and monotone associative table on two elements,
    # successful inference always yields a law-abiding structure
    for leq in corpus._partial_orders(2):
        for comp in corpus._associative_tables(2):
            if algebra.monotonicity(leq, comp) is not None:
                continue
            try:
                lres, rres = algebra.infer_residuals(leq, comp)
            except NoResidualError:
                continue
            A = FiniteResiduatedSemigroup(("x", "y"), leq, comp, lres, rres)
            assert algebra.validate(A).condition("residuation").passed


def test_enumerate_cap():
    with pytest.raises(ResourceLimitError):
        next(enumerate_algebras(4))


def test_canonical_key_invariant_under_relabeling(c2):
    swapped = FiniteResiduatedSemigroup(
        names=("b", "a"),
        leq=(0b01, 0b11),
        comp=((1, 1), (1, 1)),
        lres=((0, 0), (0, 0)),
        rres=((0, 0), (0, 0)),
    )
    assert canonical_key(swapped) == canonical_key(c2)


def test_serialize_parse_round_trip(corpus_small):
    for A in corpus_small[:40]:
        assert algebra.parse_algebra(serialize(A)) == A


def test_every_ledger_key_round_trips():
    # the keys include direct products, whose element names such as e0.e1
    # carry a dot
    ledger = json.loads((Path(__file__).parent / "data" / "cond34_ledger.json").read_text())
    assert any("." in key for key in ledger)
    for key in ledger:
        assert serialize(algebra.parse_algebra(key)) == key


def test_serialize_is_canonical(c2):
    text = serialize(c2)
    assert text.startswith("elements: a b\nleq: a<=b\n")
    assert serialize(algebra.parse_algebra(text)) == text


def test_generate_concrete_singleton_full():
    A, interp = algebra.generate_concrete(1, generators=[(1,)])
    assert A.n == 1
    assert interp.relations == ((1,),)
    assert verifier.check_representation(A, interp).valid


def test_generate_concrete_single_arrow_closure():
    # closure of {(0,1)} over a 2-point base; size frozen as a regression value
    A, interp = algebra.generate_concrete(2, generators=[(0b10, 0)])
    assert A.n == 6
    assert algebra.validate(A).valid
    assert verifier.check_representation(A, interp).valid


def test_generate_concrete_empty_generators():
    A, interp = algebra.generate_concrete(1, generators=[])
    assert A.n == 2  # the empty relation and its residual, the full relation
    assert set(interp.relations) == {(0,), (1,)}
    assert verifier.check_representation(A, interp).valid


def test_generate_concrete_size_cap():
    with pytest.raises(ClosureSizeError):
        algebra.generate_concrete(3, generators=[(6, 5, 0)], max_relations=2)


# ---------------------------------------------------------------------------
# closures and their tables against the pair-set definitions

OPS = ("composition", "left-residual", "right-residual")
# A4 draws (seed s over base 1 + s % 3) of bases 1-2, plus the base-3 ones
# whose closures have at most 64 members
A4_SMALL_SEEDS = [s for s in range(50) if s % 3 != 2] + [2, 11, 14, 32]


def naive_closure(generators, base, cap=None):
    """Fixpoint of all pairwise operations, sorted; None as soon as it has
    more than cap members."""
    family = {tuple(g) for g in generators} or {(0,) * base}
    while True:
        if cap is not None and len(family) > cap:
            return None
        fresh = {oracles.apply(op, r, s) for r in family for s in family for op in OPS} - family
        if not fresh:
            return tuple(sorted(family))
        family |= fresh


def tables_by_definition(family):
    """leq, comp, lres, rres of a closed family, each entry read off the
    definitions."""
    index = {r: i for i, r in enumerate(family)}
    k = len(family)
    leq = tuple(
        sum(1 << j for j in range(k) if oracles.included(family[i], family[j]))
        for i in range(k)
    )
    comp, lres, rres = (
        tuple(tuple(index[oracles.apply(op, family[i], family[j])] for j in range(k))
              for i in range(k))
        for op in OPS
    )
    return leq, comp, lres, rres


@pytest.mark.parametrize("seed", A4_SMALL_SEEDS)
def test_closure_tables_match_the_definitions(seed):
    base = 1 + seed % 3
    gens = a4_generators(base, seed)
    closure = algebra.close_relation_family(gens, base)
    assert closure == naive_closure(gens, base)
    assert isinstance(closure, tuple) and list(closure) == sorted(closure)
    A, interp = algebra.generate_concrete(base, gens)
    assert interp.relations == closure
    assert (A.leq, A.comp, A.lres, A.rres) == tables_by_definition(closure)
    assert (closure.comp, closure.lres, closure.rres) == (A.comp, A.lres, A.rres)


@pytest.mark.parametrize("seed", [1, 2, 13])
def test_closure_cap_boundary(seed):
    base = 1 + seed % 3
    gens = a4_generators(base, seed)
    size = len(algebra.close_relation_family(gens, base))
    assert len(algebra.close_relation_family(gens, base, max_relations=size)) == size
    with pytest.raises(ClosureSizeError):
        algebra.close_relation_family(gens, base, max_relations=size - 1)


def test_closed_generators_over_the_cap_raise():
    # the closure of {(0,1)} has six members; given all six as generators,
    # the closure adds nothing and is still over a cap of five
    family = algebra.close_relation_family([(0b10, 0)], 2)
    assert algebra.close_relation_family(family, 2) == family
    with pytest.raises(ClosureSizeError):
        algebra.close_relation_family(family, 2, max_relations=5)


def relations_over(base):
    return st.tuples(*[st.integers(0, (1 << base) - 1)] * base)


@given(st.integers(1, 3).flatmap(lambda base: st.tuples(
    st.just(base), st.lists(relations_over(base), max_size=3), st.integers(1, 64))))
@settings(max_examples=60, deadline=None)
def test_closure_matches_naive_closure_and_defined_tables(draw):
    base, gens, cap = draw
    expected = naive_closure(gens, base, cap)
    if expected is None:
        with pytest.raises(ClosureSizeError):
            algebra.close_relation_family(gens, base, max_relations=cap)
        return
    closure = algebra.close_relation_family(gens, base, max_relations=cap)
    assert closure == expected
    assert (closure.comp, closure.lres, closure.rres) == tables_by_definition(closure)[1:]


@pytest.mark.parametrize("gens, base, size", [
    ([], 0, 1),
    ([()], 0, 1),
    ([(0b1000, 0, 0, 0)], 4, 14),
    ([(0b1110, 0b1100, 0b1000, 0)], 4, 70),  # the strict order
    ([(0b0011, 0b0011, 0b1100, 0b1100), (0b0001, 0, 0, 0b1000)], 4, 25),
    (corpus.BASE_9_FAMILIES[0], 9, 4),
    (corpus.BASE_9_FAMILIES[1], 9, 3),
])
def test_closure_at_bases_0_4_and_9(gens, base, size):
    # base 9 codes fill fields of 11 bytes, wider than any native int
    closure = algebra.close_relation_family(gens, base)
    assert closure == naive_closure(gens, base)
    assert len(closure) == size
    assert (closure.comp, closure.lres, closure.rres) == tables_by_definition(closure)[1:]
    # the identity interpretation represents the closure's algebra, by both checkers
    A = algebra.algebra_of_relations(closure)
    interp = rel.Interpretation(A.names, tuple(map(str, range(base))), closure)
    report = verifier.check_representation(A, interp)
    assert report.valid
    assert report.conditions == check_representation_pairwise(A, interp)


@pytest.mark.parametrize("row", [4, -1])
def test_generator_rows_outside_the_base_are_rejected(row):
    # a packed field would let such a row spill into the next row's field
    message = rf"generator \({row}, 0\) has a row outside the base of size 2"
    with pytest.raises(ValueError, match=message):
        algebra.close_relation_family([(row, 0)], 2)


def test_generator_rows_must_be_ints_and_long_generators_are_cut_in_the_message():
    with pytest.raises(ValueError, match=r"generator \(0, '1'\) has a row outside"):
        algebra.close_relation_family([(0, "1")], 2)
    with pytest.raises(ValueError, match=r"generator '\(0, 0, .*\.\.\. \(\d+ characters\) has"):
        algebra.close_relation_family([(0,) * 40 + (1 << 41,)], 41)


def test_check_passes_exactly_when_it_has_no_witness():
    assert Check("law", None).passed
    assert not Check("law", ()).passed
    report = Report((Check("a", None), Check("b", (1,)), Check("c", (0, 2))))
    assert not report.valid
    assert report.failures == (("b", (1,)), ("c", (0, 2)))
    assert report.condition("c").witness == (0, 2)
    assert [check.message() for check in report.failures] == ["b fails at (1)", "c fails at (0, 2)"]
    assert report.failures[1].message(("x", "y", "z")) == "c fails at (x, z)"
    with pytest.raises(KeyError):
        report.condition("d")
    assert Report((Check("a", None),)).valid and Report(()).valid


def test_join_semigroup_laws_share_the_order_laws_with_validate(c2):
    laws = algebra.join_semigroup_laws(c2.leq, ((0, 1), (1, 1)), c2.comp)
    assert [check.name for check in laws.conditions] == [
        "reflexivity", "antisymmetry", "transitivity", "join_lub", "associativity",
        "distributivity",
    ]
    assert laws.valid
    assert algebra.validate(c2).conditions[:3] == laws.conditions[:3]
