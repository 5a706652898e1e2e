import pytest

from resq import algebra, relrep, verifier
from resq import relations as rel
from resq.completion import build_quantale
from resq.relations import Interpretation
from resq.relrep import (
    generators,
    hat,
    parse_interpretation,
    represent,
    represent_pipeline,
    unitalize,
)

ONE = "elements: x\nleq: x<=x\ncomp: x;x=x\n"


def test_generators_all_one_element():
    Q = build_quantale(algebra.parse_algebra(ONE))
    assert generators(Q, "all").indices == (0,)


def test_generators_c2(c2):
    Q = build_quantale(c2)
    assert generators(Q, "all").indices == (0, 1)
    # the bottom is the empty join, so only the top is join-irreducible
    assert generators(Q, "join-irreducible").indices == (1,)


def test_generators_join_irreducible_generates(corpus_all):
    for A in corpus_all[:60]:
        Q = build_quantale(A)
        G = generators(Q, "join-irreducible")
        for q in range(Q.size):
            assert Q.sup_of(g for g in G.indices if Q.le(g, q)) == q


def test_generators_unknown_mode(c2):
    with pytest.raises(ValueError):
        generators(build_quantale(c2), "some")


def test_hat_one_element():
    Q = build_quantale(algebra.parse_algebra(ONE))
    assert hat(Q, generators(Q, "all"), 0) == (1,)  # the single pair (q, q)


def test_hat_c2_conflates_without_unit(c2):
    Q = build_quantale(c2)
    G = generators(Q, "all")
    expected = rel.relation_from_pairs(2, [(0, 0), (0, 1)])
    assert hat(Q, G, 0) == expected
    assert hat(Q, G, 1) == expected


def test_hat_rows_outside_generators_are_empty(c2):
    Q = build_quantale(c2)
    G = generators(Q, "join-irreducible")
    matrix = hat(Q, G, 1)
    assert matrix[0] == 0  # index 0 is not a generator in this mode


def test_hat_monotone(corpus_all):
    for A in corpus_all[:40]:
        Q = build_quantale(A)
        G = generators(Q, "all")
        hats = [hat(Q, G, a) for a in range(Q.size)]
        for a in range(Q.size):
            for b in range(Q.size):
                if Q.le(a, b):
                    assert rel.rel_subset(hats[a], hats[b])


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


def test_unitalize_satisfies_quantale_laws(corpus_all):
    from resq.completion import check_quantale_laws

    for A in corpus_all:
        check_quantale_laws(unitalize(build_quantale(A)))


def hat_interpretation(Q):
    G = generators(Q, "all")
    return Interpretation(
        algebra=Q, base_labels=Q.labels, relations=tuple(hat(Q, G, a) for a in range(Q.size))
    )


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
    interp = represent(A)
    assert interp.base_size == 1
    assert interp.relations == ((1,),)


def test_represent_c2_without_unit_conflates(c2):
    interp = represent(c2, unitalize_mode="off")
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
    assert represent(A, unitalize_mode="on").base_size == 1


def test_represent_rejects_bad_mode(c2):
    with pytest.raises(ValueError):
        represent(c2, unitalize_mode="maybe")


def test_represent_is_deterministic(c2):
    first = represent(c2)
    second = represent(c2)
    assert first.relations == second.relations
    assert first.base_labels == second.base_labels


def test_join_irreducible_mode_still_verified_downstream(c2):
    result = represent_pipeline(c2, generators_mode="join-irreducible")
    report = verifier.check_representation(c2, result.interpretation)
    # never silently trusted: the report records exactly what holds
    assert report.condition("order-iff").passed in (True, False)


def test_dump_round_trip(c2):
    interp = represent(c2)
    text = relrep.format_interpretation(interp)
    back = parse_interpretation(text, c2)
    assert back.relations == interp.relations
    assert back.base_labels == interp.base_labels

    import json

    payload = json.dumps(relrep.interpretation_payload(interp))
    back_json = parse_interpretation(payload, c2)
    assert back_json.relations == interp.relations


def test_parse_interpretation_requires_all_elements(c2):
    from resq.errors import ParseError

    with pytest.raises(ParseError, match="no relation"):
        parse_interpretation("base: 0 1\nrel a: (0,0)\n", c2)
