import pytest

from resq import algebra, pointalg, relrep, verifier
from resq import relations as rel
from resq.errors import ResourceLimitError
from resq.relations import Interpretation
from resq.verifier import (
    Exhausted,
    NodeBudget,
    check_representation,
    check_union_transitive,
    search_representation,
)

ONE = "elements: x\nleq: x<=x\ncomp: x;x=x\n"


def test_identity_interpretation_of_closures_passes():
    for seed in range(8):
        A, interp = algebra.generate_concrete(2, seed=seed)
        assert check_representation(A, interp).all_pass


def test_one_element_pipeline_passes():
    A = algebra.parse_algebra(ONE)
    assert check_representation(A, relrep.represent(A)).all_pass


def test_c2_without_unit_fails_condition_one(c2):
    interp = relrep.represent(c2, unitalize_mode="off")
    report = check_representation(c2, interp)
    cond = report.condition("order-iff")
    assert not cond.passed
    assert cond.witness == (1, 0)  # b is not below a, yet the relations collapse
    assert report.condition("composition").passed


def test_all_conditions_always_evaluated(c2):
    interp = relrep.represent(c2, unitalize_mode="off")
    report = check_representation(c2, interp)
    assert len(report.conditions) == 4
    assert [c.name for c in report.conditions] == [
        "order-iff",
        "composition",
        "left-residual",
        "right-residual",
    ]


def test_witnesses_reevaluate_to_genuine_violations(c2):
    interp = relrep.represent(c2, unitalize_mode="off")
    report = check_representation(c2, interp)
    for cond in report.conditions:
        if cond.passed:
            continue
        if cond.name == "order-iff":
            a, b = cond.witness
            assert c2.le(a, b) != rel.rel_subset(interp.relations[a], interp.relations[b])
        else:
            a, b, x, y = cond.witness
            table, op = {
                "composition": (c2.comp, rel.rel_compose),
                "left-residual": (c2.lres, rel.rel_lres),
                "right-residual": (c2.rres, rel.rel_rres),
            }[cond.name]
            expected = interp.relations[table[a][b]]
            actual = op(interp.relations[a], interp.relations[b])
            assert (expected[x] >> y & 1) != (actual[x] >> y & 1)


def test_reported_witness_is_lexicographically_first(c2):
    interp = relrep.represent(c2, unitalize_mode="off")
    report = check_representation(c2, interp)
    cond = report.condition("order-iff")
    violations = [
        (a, b)
        for a in range(c2.n)
        for b in range(c2.n)
        if c2.le(a, b) != rel.rel_subset(interp.relations[a], interp.relations[b])
    ]
    assert cond.witness == min(violations)
    cond3 = report.condition("left-residual")
    a, b, x, y = cond3.witness
    cells = []
    for aa in range(c2.n):
        for bb in range(c2.n):
            expected = interp.relations[c2.lres[aa][bb]]
            actual = rel.rel_lres(interp.relations[aa], interp.relations[bb])
            for xx in range(interp.base_size):
                for yy in range(interp.base_size):
                    if (expected[xx] >> yy & 1) != (actual[xx] >> yy & 1):
                        cells.append((aa, bb, xx, yy))
    assert (a, b, x, y) == min(cells)


def test_report_payload_uses_labels(c2):
    interp = relrep.represent(c2, unitalize_mode="off")
    payload = check_representation(c2, interp).payload(c2.names, interp.base_labels)
    assert payload["order-iff"]["witness"]["elements"] == ["b", "a"]
    assert payload["all_pass"] is False


def test_union_transitive_single_relation():
    A, interp = algebra.generate_concrete(2, generators=[(0b11, 0b11)])
    assert check_union_transitive(interp)


def test_union_transitive_false_case():
    interp = Interpretation(
        algebra=None,
        base_labels=("0", "1", "2"),
        relations=(
            rel.relation_from_pairs(3, [(0, 1)]),
            rel.relation_from_pairs(3, [(1, 2)]),
        ),
    )
    assert not check_union_transitive(interp)


def test_union_transitive_c2_unitalized_regression(c2):
    # frozen after the first computation
    assert check_union_transitive(relrep.represent(c2)) is True


def test_search_one_element_found_at_base_one():
    A = algebra.parse_algebra(ONE)
    found = search_representation(A, 1)
    assert isinstance(found, Interpretation)
    assert found.base_size == 1
    assert found.relations == ((1,),)


def test_search_c2_exhausted_at_base_one(c2):
    # frozen after the first exhaustive run
    assert search_representation(c2, 1) == Exhausted(max_base=1)


def test_search_c2_exhausted_at_base_four(c2):
    # frozen after the first exhaustive run: no interpretation over a base of
    # up to 4 points satisfies all four conditions at once for this algebra,
    # even though the completion pipeline keeps conditions 1 and 2
    assert search_representation(c2, 4) == Exhausted(max_base=4)


def test_sp_search_point_reduct_found_at_base_two():
    P = pointalg.build_point_algebra()
    S = pointalg.reduct(P, [pointalg.ATOM_LT, pointalg.ATOM_EQ])
    found = search_representation(S, 2)
    assert isinstance(found, Interpretation)
    assert found.base_size == 2
    assert check_representation(S, found).all_pass


def test_sp_explicit_witness_for_point_reduct():
    P = pointalg.build_point_algebra()
    S = pointalg.reduct(P, [pointalg.ATOM_LT, pointalg.ATOM_EQ])
    interp = Interpretation(
        algebra=S,
        base_labels=("0", "1"),
        relations=(
            rel.relation_from_pairs(2, [(0, 0), (0, 1)]),
            rel.relation_from_pairs(2, [(0, 0), (1, 1)]),
            rel.relation_from_pairs(2, [(0, 0), (0, 1), (1, 1)]),
        ),
    )
    assert check_representation(S, interp).all_pass


def test_symmetry_breaking_preserves_verdicts(c2):
    P = pointalg.build_point_algebra()
    cases = [
        c2,
        algebra.parse_algebra(ONE),
        pointalg.reduct(P, [pointalg.ATOM_LT, pointalg.ATOM_EQ]),
        pointalg.reduct(P, [pointalg.ATOM_LT, pointalg.ATOM_GT]),
    ]
    for struct in cases:
        with_sym = search_representation(struct, 2, symmetry=True)
        without = search_representation(struct, 2, symmetry=False)
        assert isinstance(with_sym, Exhausted) == isinstance(without, Exhausted)


def naive_search(struct, k):
    import itertools

    n = len(struct.names)
    for combo in itertools.product(rel.all_relations(k), repeat=n):
        interp = Interpretation(
            algebra=struct, base_labels=tuple(map(str, range(k))), relations=combo
        )
        if check_representation(struct, interp).all_pass:
            return interp
    return None


def test_search_agrees_with_naive_product_enumeration():
    # dual-route check of exhaustiveness: the pruned, symmetry-broken search
    # and a plain scan over every relation tuple must reach the same verdicts
    for A in algebra.enumerate_algebras(2):
        for k in (1, 2):
            fast = search_representation(A, k)
            slow = any(naive_search(A, kk) for kk in range(1, k + 1))
            assert isinstance(fast, Interpretation) == slow
    P = pointalg.build_point_algebra()
    for gens in ([pointalg.ATOM_LT], [pointalg.ATOM_LT, pointalg.ATOM_EQ]):
        S = pointalg.reduct(P, gens)
        for k in (1, 2):
            fast = search_representation(S, k)
            slow = any(naive_search(S, kk) for kk in range(1, k + 1))
            assert isinstance(fast, Interpretation) == slow


def test_search_budget_raises(c2):
    with pytest.raises(ResourceLimitError):
        search_representation(c2, 3, node_budget=5)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("RESQ_NODE_BUDGET", "7")
    assert NodeBudget().limit == 7


def test_found_interpretations_reverify():
    for seed in (0, 1, 2):
        A, _ = algebra.generate_concrete(1, seed=seed)
        found = search_representation(A, 2)
        if isinstance(found, Interpretation):
            assert check_representation(A, found).all_pass
