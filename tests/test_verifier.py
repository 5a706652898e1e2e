import functools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corpus import check_representation_pairwise
from resq import algebra, pointalg, relrep, verifier
from resq import relations as rel
from resq.errors import ClosureSizeError, DimensionMismatch, ResourceLimitError, ResqError
from resq.relations import Interpretation
from resq.verifier import (
    Exhausted,
    NodeBudget,
    check_representation,
    check_union_transitive,
    plan_search,
    search_representation,
)

ONE = "elements: x\nleq: x<=x\ncomp: x;x=x\n"


def test_identity_interpretation_of_closures_passes():
    for seed in range(8):
        A, interp = algebra.generate_concrete(2, seed=seed)
        assert check_representation(A, interp).valid


def test_one_element_pipeline_passes():
    A = algebra.parse_algebra(ONE)
    assert check_representation(A, relrep.represent(A)).valid


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
    assert check_representation(S, found).valid


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
    assert check_representation(S, interp).valid


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
        if check_representation(struct, interp).valid:
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


@st.composite
def constraint_lists(draw):
    n = draw(st.integers(1, 6))
    unknown = st.integers(0, n - 1)
    equations = draw(st.lists(
        st.tuples(st.sampled_from(["composition", "join"]), unknown, unknown, unknown),
        max_size=12, unique=True,
    ))
    inclusions = draw(st.lists(st.tuples(unknown, unknown, st.booleans()), max_size=6))
    return n, equations, inclusions


@given(constraint_lists())
@settings(max_examples=300, deadline=None)
def test_plan_checks_every_constraint_once_when_it_completes(constraints):
    n, equations, inclusions = constraints
    plan = plan_search(n, equations, inclusions)
    position = {step[0]: i for i, step in enumerate(plan)}
    assert sorted(position) == list(range(n))
    checked = []
    for i, (unknown, forced, step_equations, step_inclusions) in enumerate(plan):
        before = {step[0] for step in plan[:i]}
        forceable = sorted(c for _, a, b, c in equations
                           if c not in before and a in before and b in before)
        if forced is None:
            # branch only when nothing is forced, on the lowest unassigned unknown
            assert not forceable
            assert unknown == min(set(range(n)) - before)
        else:
            assert unknown == forceable[0]
            assert (*forced, unknown) in equations
            checked.append((*forced, unknown))
        for e in step_equations:
            assert max(position[u] for u in e[1:]) == i
        for a, b, holds in step_inclusions:
            assert max(position[a], position[b]) == i
        checked.extend(step_equations)
        checked.extend(step_inclusions)
    assert Counter(checked) == Counter(equations + inclusions)


def test_search_budget_raises(c2):
    with pytest.raises(ResourceLimitError):
        search_representation(c2, 3, node_budget=5)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("RESQ_NODE_BUDGET", "7")
    assert NodeBudget().limit == 7


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_malformed_env_budget_raises_naming_the_variable(monkeypatch, value):
    monkeypatch.setenv("RESQ_NODE_BUDGET", value)
    for make in (verifier.default_node_budget, NodeBudget):
        with pytest.raises(ResqError) as info:
            make()
        assert "RESQ_NODE_BUDGET" in str(info.value)
        assert repr(value) in str(info.value)


def test_explicit_budget_wins_over_malformed_env(monkeypatch):
    monkeypatch.setenv("RESQ_NODE_BUDGET", "abc")
    assert NodeBudget(12).limit == 12
    found = search_representation(algebra.parse_algebra(ONE), 2, node_budget=100)
    assert isinstance(found, Interpretation)


def test_found_interpretations_reverify():
    for seed in (0, 1, 2):
        A, _ = algebra.generate_concrete(1, seed=seed)
        found = search_representation(A, 2)
        if isinstance(found, Interpretation):
            assert check_representation(A, found).valid


# check_representation evaluates each operation once per distinct row key and
# right operand; check_representation_pairwise makes one kernel call per pair.
# The reports must agree, statuses and first witnesses included.


def assert_checkers_agree(S, interp):
    report = check_representation(S, interp)
    assert report == check_representation_pairwise(S, interp)
    return report


def test_checkers_agree_on_the_a4_draws():
    for seed in range(50):
        A, interp = algebra.generate_concrete(1 + seed % 3, seed=seed)
        assert assert_checkers_agree(A, interp).valid


@pytest.mark.parametrize("mode", ["auto", "on", "off"])
def test_checkers_agree_on_the_pipeline_over_the_corpus(corpus_all, mode):
    failed = 0
    for A in corpus_all:
        result = relrep.represent_pipeline(A, unitalize_mode=mode)
        failed += not assert_checkers_agree(A, result.interpretation).valid
    assert failed > 0  # the residual conditions fail on part of the corpus


POINT_REDUCTS = [
    [pointalg.ATOM_LT],
    [pointalg.ATOM_EQ],
    [pointalg.ATOM_LT, pointalg.ATOM_EQ],
    [pointalg.ATOM_LT, pointalg.ATOM_GT],
]


@functools.lru_cache(maxsize=None)
def point_cases() -> tuple:
    P = pointalg.build_point_algebra()
    cases = []
    for gens in POINT_REDUCTS:
        S = pointalg.reduct(P, gens)
        found, _ = pointalg.frp_probe(S, 3)
        cases.append((S, found))
    return tuple(cases)


def test_checkers_agree_on_point_algebra_reducts():
    for S, found in point_cases():
        assert assert_checkers_agree(S, found).valid
        k = found.base_size
        # the first relation over every value, the second over eight, on the found base
        for r in rel.all_relations(k):
            for t in list(rel.all_relations(k))[:8]:
                relations = (r, t) + found.relations[2:]
                assert_checkers_agree(S, Interpretation(S, found.base_labels, relations))


@functools.lru_cache(maxsize=None)
def small_interpretations() -> tuple:
    cases = []
    for seed in range(40):
        base = 1 + seed % 3
        try:
            cases.append(algebra.generate_concrete(base, seed=seed, max_relations=48))
        except ClosureSizeError:
            continue
    return tuple(cases) + point_cases()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_checkers_agree_with_one_cell_flipped(data):
    S, interp = data.draw(st.sampled_from(small_interpretations()))
    k = interp.base_size
    e = data.draw(st.integers(0, len(interp.relations) - 1))
    x = data.draw(st.integers(0, k - 1))
    y = data.draw(st.integers(0, k - 1))
    relations = list(interp.relations)
    relations[e] = relations[e][:x] + (relations[e][x] ^ 1 << y,) + relations[e][x + 1:]
    flipped = Interpretation(S, interp.base_labels, tuple(relations))
    assert_checkers_agree(S, flipped)


def test_relations_over_different_bases_raise(c2):
    interp = Interpretation(c2, ("0", "1"), ((1, 0), (1,)))
    with pytest.raises(DimensionMismatch):
        check_representation(c2, interp)


def test_search_node_spending_is_frozen(c2):
    # the counts of the recursive walk the iterative one replaced
    budget = verifier.NodeBudget(10**6)
    assert search_representation(c2, 3, budget=budget) == Exhausted(3)
    assert budget.used == 158
    S = pointalg.reduct(pointalg.build_point_algebra(), [pointalg.ATOM_LT, pointalg.ATOM_GT])
    budget = verifier.NodeBudget(10**6)
    assert search_representation(S, 3, budget=budget).base_size == 3
    assert budget.used == 12188
