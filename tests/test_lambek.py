from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from corpus import invalid_proof_step, lambek_model, naive_countermodel
from resq import lambek
from resq import relations as rel
from resq.errors import ParseError, ResourceLimitError
from resq.lambek import (
    Atom,
    Over,
    Prod,
    Sequent,
    Under,
    countermodel_search,
    derivable,
    evaluate,
    format_formula,
    format_sequent,
    formula_value,
    parse_formula,
    parse_sequent,
    prove,
)
from resq.verifier import Exhausted

# ten derivable and ten underivable sequents, each with at most 6 connectives
DERIVABLE = [
    "p |- p",
    "p, p\\q |- q",
    "q/p, p |- q",
    "p |- (p*q)/q",
    "p |- q\\(q*p)",
    "p\\q, q\\r |- p\\r",
    "p, q |- p*q",
    "p*(q*r) |- (p*q)*r",
    "(p*q)*r |- p*(q*r)",
    "p |- (q/p)\\q",
]
UNDERIVABLE = [
    "p |- q",
    "p*q |- q*p",
    "p |- p*p",
    "p*p |- p",
    "p\\q |- q/p",
    "p |- p\\p",
    "p\\q, p |- q",
    "p |- (q*p)/q",
    "(p*q)/q |- p",
    "p/q |- q\\p",
]


def atoms(names=("p", "q", "r")):
    return st.sampled_from(names).map(Atom)


def formulas(names=("p", "q", "r"), max_leaves=4):
    return st.recursive(
        atoms(names),
        lambda sub: st.tuples(st.sampled_from([Prod, Under, Over]), sub, sub).map(
            lambda t: t[0](t[1], t[2])
        ),
        max_leaves=max_leaves,
    )


def sequents(names=("p", "q", "r")):
    """Sequents with one to three antecedent formulas."""
    return st.tuples(st.lists(formulas(names), min_size=1, max_size=3), formulas(names)).map(
        lambda t: Sequent(tuple(t[0]), t[1])
    )


# formulas of the same count as f, built from f and an atom y: the first five
# are derivable from f, the last three in general are not
SAME_COUNT = (
    lambda f, y: f,
    lambda f, y: Over(Prod(f, y), y),
    lambda f, y: Under(y, Prod(y, f)),
    lambda f, y: Over(y, Under(f, y)),
    lambda f, y: Under(Over(y, f), y),
    lambda f, y: Over(Prod(y, f), y),
    lambda f, y: Prod(Over(f, y), y),
    lambda f, y: Prod(y, Under(y, f)),
)


@st.composite
def balanced_sequents(draw, names=("p", "q", "r")):
    """Count-balanced sequents with one to five antecedent formulas of at most
    two atoms: the succedent is a product, in any bracketing, of the
    antecedent formulas in any order, each rewritten by SAME_COUNT."""
    antecedent = draw(st.lists(formulas(names, max_leaves=2), min_size=1, max_size=5))
    parts = [draw(st.sampled_from(SAME_COUNT))(f, draw(atoms(names)))
             for f in draw(st.permutations(antecedent))]
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        parts[i:i + 2] = [Prod(parts[i], parts[i + 1])]
    return Sequent(tuple(antecedent), parts[0])


def atom_counts(f, sign=1, counts=None) -> Counter:
    """Each atom's occurrences in f, counted +1 or -1 by polarity."""
    counts = Counter() if counts is None else counts
    if isinstance(f, Atom):
        counts[f.name] += sign
    else:
        sign_left, sign_right = {Prod: (1, 1), Under: (-1, 1), Over: (1, -1)}[type(f)]
        atom_counts(f.left, sign * sign_left, counts)
        atom_counts(f.right, sign * sign_right, counts)
    return counts


def balanced(s) -> bool:
    counts = Counter()
    for f in s.antecedent:
        atom_counts(f, 1, counts)
    return counts == atom_counts(s.succedent)


def small_models(base=2, n_atoms=2):
    names = ["p", "q", "r"][:n_atoms]
    relation = st.integers(0, (1 << (base * base)) - 1).map(
        lambda c: rel.decode_relation(c, base)
    )
    return st.tuples(*[relation for _ in names]).map(
        lambda vals: lambek_model(base, tuple(zip(names, vals)))
    )


# ---------------------------------------------------------------------------
# syntax


def test_parse_axiom_shape():
    s = parse_sequent("p |- p")
    assert s.antecedent == (Atom("p"),) and s.succedent == Atom("p")


def test_parse_two_formula_antecedent():
    s = parse_sequent("p, p\\q |- q")
    assert s.antecedent == (Atom("p"), Under(Atom("p"), Atom("q")))


def test_parse_rejects_empty_antecedent():
    with pytest.raises(ParseError, match="empty antecedent"):
        parse_sequent("|- p")


def test_sequent_type_rejects_empty_antecedent():
    with pytest.raises(ValueError):
        Sequent(antecedent=(), succedent=Atom("p"))


def test_product_left_associates():
    assert parse_formula("p*q*r") == Prod(Prod(Atom("p"), Atom("q")), Atom("r"))


def test_residuals_bind_loosest():
    assert parse_formula("p*q\\r") == Under(Prod(Atom("p"), Atom("q")), Atom("r"))
    assert parse_formula("(p*q)/q") == Over(Prod(Atom("p"), Atom("q")), Atom("q"))


def test_nested_residuals_need_parens():
    with pytest.raises(ParseError):
        parse_formula("p\\q\\r")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p*)")
    assert err.value.column == 3


@given(formulas())
@settings(max_examples=200)
def test_formula_print_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


def test_sequent_round_trip():
    for text in DERIVABLE + UNDERIVABLE:
        s = parse_sequent(text)
        assert parse_sequent(format_sequent(s)) == s


# ---------------------------------------------------------------------------
# proof search


def test_axiom_derivable():
    assert derivable(parse_sequent("p |- p"))


def test_lifting_derivation_has_trace():
    proof = prove(parse_sequent("p |- (p*q)/q"))
    assert proof is not None
    assert proof.rule == "r-over"
    assert proof.premises[0].rule == "r-prod"


def test_suite_verdicts():
    for text in DERIVABLE:
        assert derivable(parse_sequent(text)), text
    for text in UNDERIVABLE:
        assert not derivable(parse_sequent(text)), text


def naive_derivable(ant, succ):
    """Reference prover: same rules, direct recursion, no memoization."""
    if len(ant) == 1 and ant[0] == succ:
        return True
    if isinstance(succ, Under) and naive_derivable((succ.left, *ant), succ.right):
        return True
    if isinstance(succ, Over) and naive_derivable((*ant, succ.right), succ.left):
        return True
    if isinstance(succ, Prod):
        for i in range(1, len(ant)):
            if naive_derivable(ant[:i], succ.left) and naive_derivable(ant[i:], succ.right):
                return True
    for i, f in enumerate(ant):
        if isinstance(f, Prod):
            if naive_derivable(ant[:i] + (f.left, f.right) + ant[i + 1:], succ):
                return True
        elif isinstance(f, Under):
            for j in range(i):
                if naive_derivable(ant[j:i], f.left) and naive_derivable(
                    ant[:j] + (f.right,) + ant[i + 1:], succ
                ):
                    return True
        elif isinstance(f, Over):
            for j in range(i + 2, len(ant) + 1):
                if naive_derivable(ant[i + 1: j], f.right) and naive_derivable(
                    ant[:i] + (f.left,) + ant[j:], succ
                ):
                    return True
    return False


def test_prover_matches_naive_reference_on_suite():
    for text in DERIVABLE + UNDERIVABLE:
        s = parse_sequent(text)
        assert derivable(s) == naive_derivable(s.antecedent, s.succedent), text


@given(sequents())
@settings(max_examples=60, deadline=None)
def test_prover_matches_naive_reference_random(s):
    assert derivable(s) == naive_derivable(s.antecedent, s.succedent)


@given(balanced_sequents())
@settings(max_examples=150, deadline=None)
def test_prover_matches_naive_reference_on_balanced_sequents(s):
    # the unbalanced sequents of sequents() stop at the count filter; these
    # reach the split loops and the invertible-rule cuts
    assert balanced(s)
    proof = prove(s)
    assert (proof is not None) == naive_derivable(s.antecedent, s.succedent)
    if proof is not None:
        assert proof.sequent == s
        assert invalid_proof_step(proof) is None


@given(sequents())
@settings(max_examples=100, deadline=None)
def test_derivable_sequents_balance_every_atom(s):
    # van Benthem's count invariant, and the filter built on it: a sequent
    # whose weighted counts differ has some atom whose exact counts differ
    if naive_derivable(s.antecedent, s.succedent):
        assert balanced(s)
    if sum(f.count for f in s.antecedent) != s.succedent.count:
        assert not balanced(s)


def test_proof_trees_of_derivable_suite_check_rule_by_rule():
    for text in DERIVABLE + [DIVISIONS_6]:
        s = parse_sequent(text)
        proof = prove(s)
        assert proof.sequent == s and invalid_proof_step(proof) is None, text


def test_proof_checker_rejects_a_tampered_step():
    proof = prove(parse_sequent("p, p\\q |- q"))
    assert proof.rule == "l-under" and invalid_proof_step(proof) is None
    relabelled = replace(proof, rule="l-over")
    assert invalid_proof_step(relabelled) is relabelled
    arg, body = proof.premises
    swapped = replace(proof, premises=(body, arg))
    assert invalid_proof_step(swapped) is swapped
    # the premises keep their sequents, so the step found is the premise's
    bad_rule = replace(body, rule="r-prod")
    assert invalid_proof_step(replace(proof, premises=(arg, bad_rule))) is bad_rule
    bad_axiom = replace(arg, sequent=parse_sequent("p |- q"))
    assert invalid_proof_step(bad_axiom) is bad_axiom


# the Lambek chain of ROADMAP, unbalanced at every k, and a composition of
# divisions, derivable by k-1 l-over steps and r-over
CHAIN_8 = ", ".join(f"(a{i}/a{i + 1})*a{i + 1}" for i in range(8)) + " |- a8*a0"
DIVISIONS_6 = ", ".join(f"a{i}/a{i + 1}" for i in range(6)) + " |- a0/a6"


@pytest.mark.parametrize("text, verdict, nodes", [(CHAIN_8, False, 0), (DIVISIONS_6, True, 14)])
def test_prover_node_spending_is_frozen(text, verdict, nodes):
    # one node per distinct sequent searched; the unbalanced chain costs none
    s = parse_sequent(text)
    assert derivable(s, node_budget=nodes) is verdict
    if nodes:
        with pytest.raises(ResourceLimitError):
            derivable(s, node_budget=nodes - 1)


@given(sequents())
@settings(max_examples=60, deadline=None)
def test_prover_and_countermodels_agree(s):
    # soundness: a derivable sequent holds in every relational model, so a
    # countermodel refutes derivability and must itself falsify the sequent
    M = countermodel_search(s, max_base=2)
    if derivable(s):
        assert M == Exhausted(2)
    if not isinstance(M, Exhausted):
        assert not derivable(s)
        assert not evaluate(s, M)


def test_prover_budget():
    with pytest.raises(ResourceLimitError):
        prove(parse_sequent("p*(q*r) |- (p*q)*r"), node_budget=2)


# ---------------------------------------------------------------------------
# models


def test_evaluate_axiom_in_any_model():
    s = parse_sequent("p |- p")
    for code in range(16):
        M = lambek_model(2, (("p", rel.decode_relation(code, 2)),))
        assert evaluate(s, M)


@given(small_models())
@settings(max_examples=100)
def test_modus_ponens_valid_in_all_models(M):
    assert evaluate(parse_sequent("p, p\\q |- q"), M)


@given(small_models())
@settings(max_examples=100)
def test_derivable_sequents_hold_in_random_models(M):
    for text in ("p |- (p*q)/q", "p |- q\\(q*p)", "p, q |- p*q"):
        assert evaluate(parse_sequent(text), M)


def test_soundness_harness_random_model_corpus():
    # every derivable suite sequent holds in 1000 seeded random models
    import random

    rng = random.Random(20240811)
    sequents = [parse_sequent(text) for text in DERIVABLE]
    atom_names = sorted({a for s in sequents for a in lambek.sequent_atoms(s)})
    for _ in range(1000):
        base = rng.randint(1, 3)
        model = lambek_model(
            base,
            tuple(
                (name, rel.decode_relation(rng.randrange(1 << (base * base)), base))
                for name in atom_names
            ),
        )
        for s in sequents:
            assert evaluate(s, model)


def test_explicit_countermodel_for_product_commutation():
    s = parse_sequent("p*q |- q*p")
    M = lambek_model(
        2,
        (
            ("p", rel.relation_from_pairs(2, [(0, 1)])),
            ("q", rel.relation_from_pairs(2, [(1, 0)])),
        ),
    )
    assert formula_value(s.antecedent[0], M) == rel.relation_from_pairs(2, [(0, 0)])
    assert formula_value(s.succedent, M) == rel.relation_from_pairs(2, [(1, 1)])
    assert not evaluate(s, M)


def test_evaluate_missing_atom():
    from resq.errors import MissingAtomError

    M = lambek_model(1, (("p", (1,)),))
    with pytest.raises(MissingAtomError):
        evaluate(parse_sequent("p |- q"), M)


# ---------------------------------------------------------------------------
# countermodel search


def test_axiom_has_no_countermodel():
    assert countermodel_search(parse_sequent("p |- p"), max_base=2) == Exhausted(2)


def test_counter_for_distinct_atoms_found_at_base_one():
    M = countermodel_search(parse_sequent("p |- q"), max_base=2)
    assert M.base_size == 1
    assert dict(M.valuation) == {"p": (1,), "q": (0,)}


def test_counter_for_product_commutation_found_at_base_two():
    s = parse_sequent("p*q |- q*p")
    M = countermodel_search(s, max_base=2)
    assert M.base_size == 2
    assert not evaluate(s, M)


def test_countermodels_exist_for_whole_underivable_suite():
    for text in UNDERIVABLE:
        s = parse_sequent(text)
        M = countermodel_search(s, max_base=3)
        assert not isinstance(M, Exhausted), text
        assert not evaluate(s, M)


def test_found_countermodels_survive_isolated_point_padding():
    for text in UNDERIVABLE:
        s = parse_sequent(text)
        M = countermodel_search(s, max_base=3)
        for extra in (1, 2):
            padded = lambek_model(
                M.base_size + extra,
                tuple((name, tuple(r) + (0,) * extra) for name, r in M.valuation),
            )
            assert not evaluate(s, padded), text


def test_counter_search_is_deterministic():
    s = parse_sequent("p*p |- p")
    assert countermodel_search(s, max_base=2) == countermodel_search(s, max_base=2)


def test_counter_search_matches_naive_product_on_fixture():
    for text in DERIVABLE + UNDERIVABLE:
        s = parse_sequent(text)
        assert countermodel_search(s, max_base=2) == naive_countermodel(s, 2), text


@given(sequents(names=("p", "q")), st.integers(1, 2))
@settings(max_examples=200, deadline=None)
def test_counter_search_matches_naive_product_random(s, max_base):
    # the same first model, or exhaustion, as evaluating every valuation
    assert countermodel_search(s, max_base=max_base) == naive_countermodel(s, max_base)


def test_counter_budget():
    with pytest.raises(ResourceLimitError):
        countermodel_search(parse_sequent("p |- p"), max_base=2, node_budget=3)


def test_counter_refutes_an_antecedent_of_a_thousand_formulas():
    # p^1000 |- p: the left-nested product is interned, not hashed as a formula,
    # and the plan of about a thousand steps is walked without recursion
    s = parse_sequent(", ".join(["p"] * 1000) + " |- p")
    model = countermodel_search(s, max_base=2)
    assert model.base_size == 2
    assert not evaluate(s, model)


@pytest.mark.parametrize(
    "text, nodes",
    [("p*q |- q*p", 80), ("p |- p*(p\\p)", 38), ("p\\q, r |- p/q", 20)],
)
def test_counter_node_spending_is_frozen(text, nodes):
    # one node per plan step entered and one per branched candidate, as counted
    # by the recursive walk the iterative one replaced
    s = parse_sequent(text)
    countermodel_search(s, max_base=2, node_budget=nodes)
    with pytest.raises(ResourceLimitError):
        countermodel_search(s, max_base=2, node_budget=nodes - 1)


@pytest.mark.parametrize("budget, exhausted", [(1, 0), (10, 1), (38, 2)])
def test_counter_budget_error_counts_the_bases_exhausted(budget, exhausted):
    with pytest.raises(ResourceLimitError) as err:
        countermodel_search(parse_sequent("p |- p*(p\\p)"), max_base=3, node_budget=budget)
    assert err.value.bases_exhausted == exhausted
