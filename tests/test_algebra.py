import itertools
import random

import pytest

from corpus import C2_TEXT
from resq import algebra
from resq.algebra import Check, FiniteResiduatedSemigroup, Report, _partial_orders
from resq.errors import ClosureSizeError, NoResidualError, ParseError, ResourceLimitError
from resq import relations as rel
from resq import verifier

ONE_ELEMENT = "elements: x\nleq: x<=x\ncomp: x;x=x\n"


def test_parse_one_element():
    A = algebra.parse_algebra(ONE_ELEMENT)
    assert A.names == ("x",)
    assert A.comp == ((0,),)
    assert A.lres == ((0,),) and A.rres == ((0,),)


def test_parse_c2_infers_residuals(c2):
    b = c2.index_of("b")
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
    with pytest.raises(ParseError, match="disagrees"):
        algebra.parse_algebra(bad)


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
    names = algebra.default_names(3)
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
        leq = rng.choice(_partial_orders(3))
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


def residuals_by_definition(leq, comp):
    """Both residual tables read off their definition as maxima, or the first
    missing one as (left, right, side, candidates) in the order
    infer_residuals scans: every a\\c first, then every c/b."""
    n = len(leq)

    def le(i, j):
        return bool(leq[i] >> j & 1)

    def maximum(cands):
        tops = [m for m in cands if all(le(x, m) for x in cands)]
        return tops[0] if tops else None

    lres, rres = [], []
    for a in range(n):
        for c in range(n):
            cands = [b for b in range(n) if le(comp[a][b], c)]
            if maximum(cands) is None:
                return (a, c, "left", frozenset(cands))
            lres.append(maximum(cands))
    for c in range(n):
        for b in range(n):
            cands = [a for a in range(n) if le(comp[a][b], c)]
            if maximum(cands) is None:
                return (c, b, "right", frozenset(cands))
            rres.append(maximum(cands))
    return (
        tuple(tuple(lres[a * n:(a + 1) * n]) for a in range(n)),
        tuple(tuple(rres[c * n:(c + 1) * n]) for c in range(n)),
    )


def test_infer_residuals_match_definition():
    rng = random.Random(5)
    orders = list(_partial_orders(3))
    outcomes = set()
    for _ in range(600):
        leq = rng.choice(orders)
        comp = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        expected = residuals_by_definition(leq, comp)
        try:
            got = algebra.infer_residuals(leq, comp)
        except NoResidualError as exc:
            got = (exc.left, exc.right, exc.side, exc.candidates)
        assert got == expected, (leq, comp)
        outcomes.add(len(expected))
    assert outcomes == {2, 4}  # both found tables and missing residuals occur


def test_enumerate_one_element():
    assert len(list(algebra.enumerate_algebras(1))) == 1


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
    algs = list(algebra.enumerate_algebras(2))
    assert len(algs) == naive_enumerate_two() == 6


def test_enumerate_outputs_validate(corpus_small):
    for A in corpus_small:
        assert algebra.validate(A).valid


def test_inferred_residuals_never_fail_validation():
    # over every order and monotone associative table on two elements,
    # successful inference always yields a law-abiding structure
    from resq.algebra import _associative_tables, _partial_orders, monotonicity

    for leq in _partial_orders(2):
        for comp in _associative_tables(2):
            if monotonicity(leq, comp) is not None:
                continue
            try:
                lres, rres = algebra.infer_residuals(leq, comp)
            except NoResidualError:
                continue
            A = FiniteResiduatedSemigroup(("x", "y"), leq, comp, lres, rres)
            assert algebra.validate(A).condition("residuation").passed


def test_enumerate_cap():
    with pytest.raises(ResourceLimitError):
        next(algebra.enumerate_algebras(4))


def test_enumerate_up_to_iso_is_coarser():
    labeled = list(algebra.enumerate_algebras(2))
    classes = list(algebra.enumerate_algebras(2, up_to_iso=True))
    assert len(classes) == 3
    keys = {algebra.canonical_key(A) for A in labeled}
    assert keys == {algebra.canonical_key(A) for A in classes}


def test_canonical_key_invariant_under_relabeling(c2):
    swapped = FiniteResiduatedSemigroup(
        names=("b", "a"),
        leq=(0b01, 0b11),
        comp=((1, 1), (1, 1)),
        lres=((0, 0), (0, 0)),
        rres=((0, 0), (0, 0)),
    )
    assert algebra.canonical_key(swapped) == algebra.canonical_key(c2)


def test_serialize_parse_round_trip(corpus_small):
    for A in corpus_small[:40]:
        assert algebra.parse_algebra(algebra.serialize(A)) == A


def test_serialize_is_canonical(c2):
    text = algebra.serialize(c2)
    assert text.startswith("elements: a b\nleq: a<=b\n")
    assert algebra.serialize(algebra.parse_algebra(text)) == text


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


def test_generate_concrete_seeded_is_deterministic():
    A1, I1 = algebra.generate_concrete(2, seed=7)
    A2, I2 = algebra.generate_concrete(2, seed=7)
    assert A1 == A2 and I1.relations == I2.relations


def test_generate_concrete_size_cap():
    with pytest.raises(ClosureSizeError):
        algebra.generate_concrete(3, generators=[(6, 5, 0)], max_relations=2)


# ---------------------------------------------------------------------------
# closure tables against k^2 kernel calls per operation

OPS = (rel.rel_compose, rel.rel_lres, rel.rel_rres)
# A4 draws (seed s over base 1 + s % 3) of bases 1-2, plus the base-3 ones
# whose closures have at most 64 members
A4_SMALL_SEEDS = [s for s in range(50) if s % 3 != 2] + [2, 11, 14, 32]


def a4_generators(base, seed):
    """The generator draw of generate_concrete(base, seed)."""
    rng = random.Random(seed)
    count = rng.randint(1, 3)
    return [tuple(rng.randrange(1 << base) for _ in range(base)) for _ in range(count)]


def naive_closure(generators, base):
    """Fixpoint of all pairwise operations, sorted."""
    family = {tuple(g) for g in generators} or {rel.empty_relation(base)}
    while True:
        fresh = {op(r, s) for r in family for s in family for op in OPS} - family
        if not fresh:
            return tuple(sorted(family))
        family |= fresh


def tables_by_kernel(family):
    """leq, comp, lres, rres of a closed family, each entry from a kernel call."""
    index = {r: i for i, r in enumerate(family)}
    k = len(family)
    leq = tuple(
        sum(1 << j for j in range(k) if rel.rel_subset(family[i], family[j]))
        for i in range(k)
    )
    comp, lres, rres = (
        tuple(tuple(index[op(family[i], family[j])] for j in range(k)) for i in range(k))
        for op in OPS
    )
    return leq, comp, lres, rres


@pytest.mark.parametrize("seed", A4_SMALL_SEEDS)
def test_closure_tables_match_kernel_calls(seed):
    base = 1 + seed % 3
    gens = a4_generators(base, seed)
    closure = algebra.close_relation_family(gens, base)
    assert closure == naive_closure(gens, base)
    assert isinstance(closure, tuple) and list(closure) == sorted(closure)
    A, interp = algebra.generate_concrete(base, seed=seed)
    assert interp.relations == closure
    assert (A.leq, A.comp, A.lres, A.rres) == tables_by_kernel(closure)
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
