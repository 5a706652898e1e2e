import json

import pytest

from corpus import (hat_by_definition, large_quantale_algebras, quantale_50_model, serialize,
                    sup_by_fold)
from resq import algebra, relrep, verifier
from resq import relations as rel
from resq.completion import Quantale, build_quantale, embed
from resq.errors import ResourceLimitError
from resq.relations import Interpretation, parse_interpretation
from resq.relrep import hat, represent_pipeline, unitalize

ONE = "elements: x\nleq: x<=x\ncomp: x;x=x\n"


def test_hat_one_element():
    Q = build_quantale(algebra.parse_algebra(ONE))
    assert hat(Q, [0]) == ((1,),)  # the single pair (q, q)


def test_hat_c2_conflates_without_unit(c2):
    Q = build_quantale(c2)
    expected = rel.relation_from_pairs(2, [(0, 0), (0, 1)])
    assert hat(Q, [0, 1]) == (expected, expected)


def test_hat_monotone(corpus_all):
    for A in corpus_all[:40]:
        Q = build_quantale(A)
        hats = hat(Q, range(Q.size))
        for a in range(Q.size):
            for b in range(Q.size):
                if Q.le(a, b):
                    assert rel.rel_subset(hats[a], hats[b])


def test_hat_bottom_row_is_every_element(corpus_all):
    # every element of Q is a generator, the bottom too, and bottom <= a;q
    for A in corpus_all:
        for Q in (build_quantale(A), unitalize(build_quantale(A))):
            full = (1 << Q.size) - 1
            assert all(r[Q.bottom] == full for r in hat(Q, range(Q.size)))


def test_unitalize_c2(c2):
    Q = build_quantale(c2)
    U = unitalize(Q)
    assert U.size == 4
    assert U.labels == ("{a}", "{a,b}", "{a}+e", "{a,b}+e")
    assert U.unital and U.unit == 2
    # (bottom, 0) composed with the unit stays put
    assert U.comp[0][2] == 0
    assert U.comp[1][2] == 1 and U.comp[2][1] == 1


def test_unitalize_is_identity_on_unital():
    Q = build_quantale(algebra.parse_algebra(ONE))
    assert Q.unital
    assert unitalize(Q) is Q


def test_unitalize_embedding_preserves_structure(corpus_small):
    for A in corpus_small[:40]:
        Q = build_quantale(A)
        U = unitalize(Q)
        if U is Q:
            continue
        for p in range(Q.size):
            for q in range(Q.size):
                assert U.comp[p][q] == Q.comp[p][q]
                assert U.sup[p][q] == Q.sup[p][q]
                assert U.le(p, q) == Q.le(p, q)


def test_unitalize_order_is_mask_inclusion(corpus_all):
    for A in corpus_all:
        U = unitalize(build_quantale(A))
        assert U.leq == rel.inclusion_order([(m,) for m in U.masks]), serialize(A)


def test_unitalize_satisfies_quantale_laws(corpus_all):
    from resq.completion import check_quantale_laws

    for A in corpus_all:
        check_quantale_laws(unitalize(build_quantale(A)))


def test_every_element_is_the_join_of_the_elements_below_it(corpus_all):
    # the reason hat(a) <= hat(b) holds exactly when a;q <= b;q for every q,
    # which auto unitalization relies on to read the order condition off Q
    for A in corpus_all + large_quantale_algebras():
        Q = build_quantale(A)
        for quantale in (Q, unitalize(Q)):
            for q in range(quantale.size):
                below = (g for g in range(quantale.size) if quantale.le(g, q))
                assert sup_by_fold(quantale, below) == q, (q, serialize(A))


def hat_interpretation(Q):
    return Interpretation(names=Q.labels, base_labels=Q.labels, relations=hat(Q, range(Q.size)))


def _assert_hats_match_definition(Q):
    expected = tuple(hat_by_definition(Q, a) for a in range(Q.size))
    assert hat(Q, range(Q.size)) == expected
    # any selection of the elements, in any order, repeats allowed
    picked = [Q.size - 1, 0, Q.size - 1]
    assert hat(Q, picked) == tuple(expected[a] for a in picked)
    assert hat(Q, []) == ()


def test_hats_match_definition(corpus_all):
    for A in corpus_all:
        Q = build_quantale(A)
        _assert_hats_match_definition(Q)
        _assert_hats_match_definition(unitalize(Q))


def test_large_hats_match_definition():
    for A in large_quantale_algebras():
        Q = build_quantale(A)
        _assert_hats_match_definition(Q)
        _assert_hats_match_definition(unitalize(Q))
    _, Q, _ = quantale_50_model()
    assert Q.size == 50
    _assert_hats_match_definition(Q)


def test_hats_do_not_depend_on_a_read_candidate_mask_pass(corpus_small):
    # a fresh quantale, whose pass no check has read, builds it for its hats,
    # and gets those of the checked one
    for A in corpus_small[:40]:
        Q = unitalize(build_quantale(A))
        fresh = Quantale(Q.labels, Q.masks, Q.leq, Q.comp, Q.sup, Q.bottom, Q.top, Q.unit)
        assert hat(fresh, range(fresh.size)) == hat(Q, range(Q.size))


def test_auto_mode_unitalizes_exactly_when_plain_hats_fail_order(corpus_all):
    for A in corpus_all + large_quantale_algebras():
        Q0 = build_quantale(A)
        hats = tuple(hat_by_definition(Q0, a) for a in range(Q0.size))
        assert hat(Q0, range(Q0.size)) == hats
        interp = Interpretation(names=Q0.labels, base_labels=Q0.labels, relations=hats)
        order = verifier.check_representation(Q0, interp).condition("order-iff")
        result = represent_pipeline(A)
        assert result.unitalized == (not order.passed), serialize(A)
        assert result.unitalize_reason == order, serialize(A)


def test_hat_check_reflection_fails_on_c2_without_unit(c2):
    Q = build_quantale(c2)
    report = verifier.check_representation(Q, hat_interpretation(Q))
    order = report.condition("order-iff")
    # the hats preserve the order, so the witness is a failure of reflection
    assert not order.passed and order.witness == (1, 0)
    assert not Q.le(1, 0)
    assert report.condition("composition").passed


def test_hat_check_reflection_passes_after_unitalization(c2):
    U = unitalize(build_quantale(c2))
    report = verifier.check_representation(U, hat_interpretation(U))
    assert report.condition("order-iff").passed
    assert report.condition("composition").passed


def test_represent_one_element():
    A = algebra.parse_algebra(ONE)
    interp = represent_pipeline(A).interpretation
    assert interp.base_size == 1
    assert interp.relations == ((1,),)


def test_represent_c2_without_unit_conflates(c2):
    interp = represent_pipeline(c2, unitalize_mode="off").interpretation
    assert interp.relations[0] == interp.relations[1]
    assert interp.base_size == 2


def test_represent_c2_auto_unitalizes_and_separates(c2):
    result = represent_pipeline(c2)
    assert result.unitalized
    interp = result.interpretation
    a_r, b_r = interp.relations
    assert a_r != b_r and rel.rel_subset(a_r, b_r)
    # the pair ((down b, 0), e) = (1, 2) separates them
    assert b_r[1] >> 2 & 1 and not a_r[1] >> 2 & 1
    assert interp.base_size == 4


def test_represent_on_mode_is_noop_for_unital():
    A = algebra.parse_algebra(ONE)
    assert represent_pipeline(A, unitalize_mode="on").interpretation.base_size == 1


def test_represent_rejects_bad_mode(c2):
    with pytest.raises(ValueError):
        represent_pipeline(c2, unitalize_mode="maybe").interpretation


def test_represent_is_deterministic(c2):
    first = represent_pipeline(c2).interpretation
    second = represent_pipeline(c2).interpretation
    assert first.relations == second.relations
    assert first.base_labels == second.base_labels


def test_represent_relations_are_the_hats_of_the_embedded_elements(corpus_small):
    # unitalize lays out the (q, 0) copies first, so the indices of the
    # embedding into the plain completion name the same elements after it
    for A in corpus_small:
        for mode in ("auto", "on", "off"):
            result = represent_pipeline(A, unitalize_mode=mode)
            f = embed(A, result.base_quantale)
            expected = tuple(hat_by_definition(result.quantale, f[a]) for a in range(A.n))
            assert result.interpretation.relations == expected, (mode, serialize(A))
            assert result.interpretation.base_labels == result.quantale.labels


def test_auto_mode_representation_reflects_the_order(corpus_all):
    # with a unit a = a;e, so hat(a) <= hat(b) forces a <= b
    for A in corpus_all:
        result = represent_pipeline(A)
        report = verifier.check_representation(A, result.interpretation)
        assert report.condition("order-iff").passed, serialize(A)


def test_represent_pipeline_has_no_generator_choice(c2):
    with pytest.raises(TypeError):
        represent_pipeline(c2, generators_mode="all")
    assert not hasattr(relrep, "generators")
    assert not hasattr(Quantale, "sup_of")


def one_element_dump(form: str, size: int) -> str:
    labels = [str(i) for i in range(size)]
    if form == "text":
        return f"base: {' '.join(labels)}\nrel x: (0,1)\n"
    return json.dumps({"base": labels, "relations": {"x": [[0, 1]]}})


@pytest.mark.parametrize("form, what", [("text", "dump base line"), ("json", "dump field 'base'")])
def test_a_dump_base_above_the_cap_is_refused_in_either_form(form, what):
    A = algebra.parse_algebra(ONE)
    cap = rel.MAX_BASE
    assert parse_interpretation(one_element_dump(form, cap), A.names).base_size == cap
    with pytest.raises(ResourceLimitError, match=rf"{what} exceeds the cap \(limit {cap}\)"):
        parse_interpretation(one_element_dump(form, cap + 1), A.names)


def test_parse_interpretation_requires_all_elements(c2):
    from resq.errors import ParseError

    with pytest.raises(ParseError, match="no relation"):
        parse_interpretation("base: 0 1\nrel a: (0,0)\n", c2.names)
