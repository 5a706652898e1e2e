import pytest

from corpus import dense_chain_table
from resq import pointalg
from resq.pointalg import (
    ATOM_EQ,
    ATOM_GT,
    ATOM_LT,
    FULL,
    build_point_algebra,
    check_sp_laws,
    frp_probe,
    parse_element,
    reduct,
    render_element,
)
from resq.relations import Interpretation
from resq.verifier import check_representation
from resq.errors import ResourceLimitError


@pytest.fixture(scope="module")
def P():
    return build_point_algebra()


def test_equality_atom_is_an_identity(P):
    for x in range(8):
        assert P.comp[ATOM_EQ][x] == x
        assert P.comp[x][ATOM_EQ] == x


def test_atomic_compositions(P):
    assert P.comp[ATOM_LT][ATOM_LT] == ATOM_LT
    assert P.comp[ATOM_GT][ATOM_GT] == ATOM_GT
    assert P.comp[ATOM_LT][ATOM_GT] == FULL
    assert P.comp[ATOM_GT][ATOM_LT] == FULL


def test_empty_element_annihilates(P):
    for x in range(8):
        assert P.comp[0][x] == 0
        assert P.comp[x][0] == 0


def test_table_matches_dense_chain_oracle(P):
    assert P.comp == dense_chain_table()


def test_oracle_stable_under_smaller_sampling():
    # atom compositions already stabilise with one midpoint level
    assert dense_chain_table(samples=16, depth=1) == dense_chain_table()


def test_composition_distributes_over_join(P):
    for r in range(8):
        for s in range(8):
            for t in range(8):
                assert P.comp[r][s | t] == P.comp[r][s] | P.comp[r][t]


def test_composition_associative(P):
    for r in range(8):
        for s in range(8):
            for t in range(8):
                assert P.comp[P.comp[r][s]][t] == P.comp[r][P.comp[s][t]]


def test_parse_and_render_elements():
    assert parse_element("<") == ATOM_LT
    assert parse_element("full") == FULL
    assert parse_element("neq") == ATOM_LT | ATOM_GT
    assert parse_element("<=") == ATOM_LT | ATOM_EQ
    assert parse_element("=<") == ATOM_LT | ATOM_EQ
    assert render_element(ATOM_LT | ATOM_EQ) == "<="
    assert render_element(ATOM_EQ | ATOM_GT) == ">="
    assert render_element(FULL) == "full"
    assert render_element(0) == "0"
    with pytest.raises(ValueError):
        parse_element("<>x")


def test_reduct_lt_eq(P):
    S = reduct(P, [ATOM_LT, ATOM_EQ])
    assert S.names == ("<", "=", "<=")
    assert S.elements == (ATOM_LT, ATOM_EQ, ATOM_LT | ATOM_EQ)


def test_reduct_lt_alone(P):
    S = reduct(P, [ATOM_LT])
    assert S.names == ("<",)


def test_reduct_lt_gt(P):
    S = reduct(P, [ATOM_LT, ATOM_GT])
    assert S.names == ("<", ">", "neq", "full")
    neq = S.index_of("neq")
    assert S.names[S.comp[neq][neq]] == "full"


def test_reduct_laws_hold(P):
    for gens in ([ATOM_LT], [ATOM_LT, ATOM_EQ], [ATOM_LT, ATOM_GT], [FULL], [ATOM_EQ, 5]):
        check_sp_laws(reduct(P, gens))


CHAIN3_JOIN = tuple(tuple(max(i, j) for j in range(3)) for i in range(3))


def _sp(join, comp):
    names = tuple(str(i) for i in range(len(join)))
    return pointalg.SPStructure(names=names, elements=tuple(range(len(join))),
                                join=join, comp=comp)


def test_check_sp_laws_accepts_the_chain():
    check_sp_laws(_sp(CHAIN3_JOIN, ((0, 0, 0), (0, 0, 0), (0, 0, 0))))


@pytest.mark.parametrize(
    "join, comp, message",
    [
        # x v y = y: associative and idempotent, not commutative
        (((0, 1), (0, 1)), ((0, 0), (0, 1)), "antisymmetry fails at (0, 1)"),
        # constant join: commutative and associative, not idempotent
        (((1, 1), (1, 1)), ((1, 1), (1, 1)), "reflexivity fails at (0)"),
        # rock-paper-scissors join: commutative and idempotent, not associative
        (((0, 0, 2), (0, 1, 1), (2, 1, 2)), ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
         "transitivity fails at (0, 2, 1)"),
        # distributive over the chain join, not associative: (2;2);2 = 0, 2;(2;2) = 1
        (CHAIN3_JOIN, ((0, 0, 0), (0, 0, 0), (0, 1, 1)), "associativity fails at (2, 2, 1)"),
        # associative, not distributive: rows 1 and 2 are not monotone
        (CHAIN3_JOIN, ((0, 0, 0), (0, 1, 0), (0, 2, 0)), "distributivity fails at (1, 1, 2)"),
    ],
    ids=["join-not-commutative", "join-not-idempotent", "join-not-associative",
         "composition-not-associative", "composition-not-distributive"],
)
def test_check_sp_laws_rejects_each_broken_law(join, comp, message):
    # the first failed law of the list the quantale check reads, in its one form
    with pytest.raises(AssertionError) as caught:
        check_sp_laws(_sp(join, comp))
    assert str(caught.value) == message


def test_probe_lt_eq_found_at_base_two(P):
    S = reduct(P, [ATOM_LT, ATOM_EQ])
    result, stats = frp_probe(S, 3)
    assert isinstance(result, Interpretation)
    assert result.base_size == 2
    assert check_representation(S, result).valid
    assert stats.nodes > 0


def test_probe_lt_found_at_base_one(P):
    S = reduct(P, [ATOM_LT])
    result, _ = frp_probe(S, 2)
    assert isinstance(result, Interpretation)
    assert result.base_size == 1
    # the one explicitly idempotent witness also verifies
    explicit = Interpretation(algebra=S, base_labels=("0",), relations=((1,),))
    assert check_representation(S, explicit).valid


def test_probe_lt_gt_regression(P):
    # frozen after the first exhaustive run: the join/composition conditions
    # admit a 3-point model for this reduct, found after exhausting base 2
    S = reduct(P, [ATOM_LT, ATOM_GT])
    result, stats = frp_probe(S, 3)
    assert isinstance(result, Interpretation)
    assert result.base_size == 3
    assert check_representation(S, result).valid


def test_probe_budget_error(P):
    S = reduct(P, [ATOM_LT, ATOM_GT])
    with pytest.raises(ResourceLimitError):
        frp_probe(S, 3, node_budget=10)


def test_probe_results_reverify(P):
    for gens in ([ATOM_LT], [ATOM_EQ], [ATOM_LT, ATOM_EQ]):
        S = reduct(P, gens)
        result, _ = frp_probe(S, 2)
        if isinstance(result, Interpretation):
            assert check_representation(S, result).valid
