import dataclasses
import functools
import itertools
import json
import operator
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    BASE_9_FAMILIES,
    a4_generators,
    all_relations,
    check_representation_pairwise,
    counted_lanes_by_popcount,
    enumerate_algebras,
    make_c2,
    plan_search_by_scan,
    quantale_50_model,
    scalar_run_plan,
    sequent_plan,
    structure_plan,
)
from make_cond34_ledger import ledger_entries
from resq import algebra, lambek, pointalg, relrep, verifier
from resq import relations as rel
from resq.errors import ClosureSizeError, DimensionMismatch, ResourceLimitError
from resq.relations import Interpretation
from resq.verifier import (
    Exhausted,
    NodeBudget,
    check_representation,
    check_union_transitive,
    first_model,
    plan_search,
    run_plan,
    search_representation,
)

ONE = "elements: x\nleq: x<=x\ncomp: x;x=x\n"


def test_identity_interpretation_of_closures_passes():
    for seed in range(8):
        A, interp = algebra.generate_concrete(2, a4_generators(2, seed))
        assert check_representation(A, interp).valid


def test_one_element_pipeline_passes():
    A = algebra.parse_algebra(ONE)
    assert check_representation(A, relrep.represent_pipeline(A).interpretation).valid


def test_c2_without_unit_fails_condition_one(c2):
    interp = relrep.represent_pipeline(c2, unitalize_mode="off").interpretation
    report = check_representation(c2, interp)
    cond = report.condition("order-iff")
    assert not cond.passed
    assert cond.witness == (1, 0)  # b is not below a, yet the relations collapse
    assert report.condition("composition").passed


def test_all_conditions_always_evaluated(c2):
    interp = relrep.represent_pipeline(c2, unitalize_mode="off").interpretation
    report = check_representation(c2, interp)
    assert len(report.conditions) == 4
    assert [c.name for c in report.conditions] == [
        "order-iff",
        "composition",
        "left-residual",
        "right-residual",
    ]


def test_witnesses_reevaluate_to_genuine_violations(c2):
    interp = relrep.represent_pipeline(c2, unitalize_mode="off").interpretation
    report = check_representation(c2, interp)
    for cond in report.conditions:
        if cond.passed:
            continue
        if cond.name == "order-iff":
            a, b = cond.witness
            assert c2.le(a, b) != rel.rel_subset(interp.relations[a], interp.relations[b])
        else:
            a, b, x, y = cond.witness
            table = dict(c2.operations)[cond.name]
            expected = interp.relations[table[a][b]]
            actual = rel.OPERATIONS[cond.name].apply(interp.relations[a], interp.relations[b])
            assert (expected[x] >> y & 1) != (actual[x] >> y & 1)


def test_reported_witness_is_lexicographically_first(c2):
    interp = relrep.represent_pipeline(c2, unitalize_mode="off").interpretation
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
            actual = rel.OPERATIONS["left-residual"].apply(interp.relations[aa],
                                                           interp.relations[bb])
            for xx in range(interp.base_size):
                for yy in range(interp.base_size):
                    if (expected[xx] >> yy & 1) != (actual[xx] >> yy & 1):
                        cells.append((aa, bb, xx, yy))
    assert (a, b, x, y) == min(cells)


def test_report_payload_uses_labels(c2):
    interp = relrep.represent_pipeline(c2, unitalize_mode="off").interpretation
    payload = check_representation(c2, interp).payload(c2.names, interp.base_labels)
    assert payload["order-iff"]["witness"]["elements"] == ["b", "a"]
    assert payload["all_pass"] is False


def test_union_transitive_single_relation():
    A, interp = algebra.generate_concrete(2, generators=[(0b11, 0b11)])
    assert check_union_transitive(interp)


def test_union_transitive_false_case():
    interp = Interpretation(
        names=None,
        base_labels=("0", "1", "2"),
        relations=(
            rel.relation_from_pairs(3, [(0, 1)]),
            rel.relation_from_pairs(3, [(1, 2)]),
        ),
    )
    assert not check_union_transitive(interp)


def test_union_transitive_c2_unitalized_regression(c2):
    # frozen after the first computation
    assert check_union_transitive(relrep.represent_pipeline(c2).interpretation) is True


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
        names=S.names,
        base_labels=("0", "1"),
        relations=(
            rel.relation_from_pairs(2, [(0, 0), (0, 1)]),
            rel.relation_from_pairs(2, [(0, 0), (1, 1)]),
            rel.relation_from_pairs(2, [(0, 0), (0, 1), (1, 1)]),
        ),
    )
    assert check_representation(S, interp).valid


def naive_search(struct, k):
    """The first relation tuple over k points, in product order, that the
    definitional checker accepts, or None."""
    n = len(struct.names)
    for combo in itertools.product(all_relations(k), repeat=n):
        interp = Interpretation(
            names=struct.names, base_labels=tuple(map(str, range(k))), relations=combo
        )
        if all(witness is None for _, witness in check_representation_pairwise(struct, interp)):
            return interp
    return None


def test_search_agrees_with_naive_product_enumeration(c2):
    # dual-route check of exhaustiveness: the pruned, symmetry-broken search
    # and a plain scan over every relation tuple must reach the same verdicts
    P = pointalg.build_point_algebra()
    structures = [*enumerate_algebras(2), c2, algebra.parse_algebra(ONE)] + [
        pointalg.reduct(P, gens) for gens in (
            [pointalg.ATOM_LT],
            [pointalg.ATOM_LT, pointalg.ATOM_EQ],
            [pointalg.ATOM_LT, pointalg.ATOM_GT],
        )
    ]
    for S in structures:
        for k in (1, 2):
            fast = search_representation(S, k)
            slow = any(naive_search(S, kk) for kk in range(1, k + 1))
            assert isinstance(fast, Interpretation) == slow


OPERATIONS = ["composition", "left-residual", "right-residual", "join"]


@st.composite
def constraint_lists(draw, operations=("composition", "join"), max_unknowns=6):
    n = draw(st.integers(1, max_unknowns))
    unknown = st.integers(0, n - 1)
    equations = draw(st.lists(
        st.tuples(st.sampled_from(operations), unknown, unknown, unknown),
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


@given(constraint_lists(OPERATIONS, max_unknowns=8))
@settings(max_examples=300, deadline=None)
def test_plan_is_the_one_read_off_its_definition(constraints):
    assert plan_search(*constraints) == plan_search_by_scan(*constraints)


def block_per_branch(plan: tuple) -> int:
    """The most a charge of run_plan can hold, and so the most a budget that
    runs out can pass its limit by: one block's nodes per branch, a node per
    lane of each of its masks."""
    branches = sum(forced is None for _, forced, _, _ in plan)
    return (1 << rel.BLOCK_BITS) * (len(plan) + branches)


def nested_masks(rng, lanes, depth, case):
    """depth masks over lanes lanes, each inside the one before, as the steps
    of a block leave them: masks[0] its candidates, masks[-1] its survivors.
    The candidates are thinned to about a thousand at most, so the oracle
    stays quick."""
    masks = [functools.reduce(operator.and_, (rng.getrandbits(lanes)
                                              for _ in range(1 if lanes <= 512 else 6)))]
    for _ in range(depth - 1):
        # a step cuts about a quarter of the lanes, or none
        cut = rng.getrandbits(lanes) | rng.getrandbits(lanes) if rng.random() < 0.6 else -1
        masks.append(masks[-1] & cut)
    if case in ("lane 0", "top lane"):
        bit = 1 if case == "lane 0" else 1 << (lanes - 1)
        masks = [m | bit for m in masks]
    elif case == "last empty":
        masks[-1] = 0
    elif case == "all equal":
        masks = [masks[-1]] * depth
    return masks


@pytest.mark.parametrize("case", ["random", "last empty", "lane 0", "top lane", "all equal"])
@pytest.mark.parametrize("lanes", [512, 1 << 16])
def test_survivor_counts_match_the_popcount_oracle(lanes, case):
    # each survivor's count is the popcount of every mask up to its lane,
    # whether some step cut lanes (read off the cuts) or none did (i * depth)
    rng = random.Random(f"{lanes} {case}")
    for depth in (1, 2, 3, 4, 6, 6, 6):
        masks = nested_masks(rng, lanes, depth, case)
        assert all(b & ~a == 0 for a, b in zip(masks, masks[1:]))
        expected = counted_lanes_by_popcount(masks)
        assert list(verifier._counted_lanes(masks)) == expected
        assert bool(expected) == (case != "last empty")
        if case == "lane 0":
            assert expected[0] == (0, depth)
        if case == "top lane":
            assert expected[-1] == (lanes - 1, sum(m.bit_count() for m in masks))


@given(constraint_lists(OPERATIONS, max_unknowns=4), st.integers(1, 3), st.integers(0, 20_000))
@settings(max_examples=150, deadline=None)
def test_sweep_spends_the_nodes_of_the_scalar_walk(constraints, k, limit):
    # the sliced sweep against one candidate at a time: the same first
    # assignment, node for node, and a budget error exactly where the
    # scalar walk raises one
    n, equations, inclusions = constraints
    plan = plan_search(n, equations, inclusions)
    scalar, sliced = NodeBudget(limit), NodeBudget(limit)
    try:
        expected = scalar_run_plan(plan, k, scalar)
    except ResourceLimitError:
        with pytest.raises(ResourceLimitError):
            run_plan(plan, k, sliced)
        # a charge is spent whole, so the overshoot is within one block a branch
        assert 0 < sliced.used - limit <= block_per_branch(plan)
        return
    assert run_plan(plan, k, sliced) == expected
    assert sliced.used == scalar.used


# (label, k): countermodel plans whose first branch leaves about a hundred
# survivors at k = 3, so the second branch takes them as one batch; the
# {<,>} reduct's representation plan; a plan of three branches at k = 2,
# where a batch of the third takes the survivors of batches of the second;
# and representation plans of C2 and of ledger algebras (by position in
# the ledger file) at k = 3: #12 and #81 exhaust base 3, #124 is found
# there, and all three re-check right residuals at keys with gaps
FIXED_PLANS = [
    ("p |- (q/p)\\q", 3),
    ("p, q |- p*q", 3),
    ("p*q |- q*p", 3),
    ("{<,>}", 3),
    ("p\\q, q\\r |- p\\r", 2),
    ("C2", 3),
    ("ledger #12", 3),
    ("ledger #81", 3),
    ("ledger #124", 3),
]


def fixed_plan(label: str) -> tuple:
    if label == "{<,>}":
        P = pointalg.build_point_algebra()
        return structure_plan(pointalg.reduct(P, [pointalg.ATOM_LT, pointalg.ATOM_GT]))
    if label == "C2":
        return structure_plan(make_c2())
    if label.startswith("ledger #"):
        ledger = json.loads((Path(__file__).parent / "data" / "cond34_ledger.json").read_text())
        position = int(label.removeprefix("ledger #"))
        return structure_plan(algebra.parse_algebra(list(ledger)[position]))
    return sequent_plan(label)


@pytest.mark.parametrize("label, k", FIXED_PLANS)
def test_batched_sweep_spends_the_nodes_of_the_scalar_walk_on_fixed_plans(label, k):
    plan = fixed_plan(label)
    scalar, batched = NodeBudget(10**8), NodeBudget(10**8)
    expected = scalar_run_plan(plan, k, scalar)
    assert run_plan(plan, k, batched) == expected
    assert batched.used == scalar.used
    # the walk's count is the exact threshold: as a limit it completes, one
    # less raises
    assert run_plan(plan, k, NodeBudget(scalar.used)) == expected
    with pytest.raises(ResourceLimitError):
        run_plan(plan, k, NodeBudget(scalar.used - 1))


@pytest.mark.parametrize("sequent, k", [
    # p, q |- p*q exhausts every base; at base 3 its second branch takes
    # the 104 surviving lex-leaders of the first as one batch of runs, which
    # holds all but a few hundred of the base's nodes
    ("p, q |- p*q", 3),
    # three branches at base 2: a batch of the third takes the survivors of
    # batches of the second, whose charges span runs of the second's block
    ("p\\q, q\\r |- p\\r", 2),
])
def test_budget_that_runs_out_inside_a_batch_raises_with_the_scalar_walk(sequent, k):
    # a limit halfway through base k runs out between two runs of a batch:
    # the search raises over base k, as the scalar walk does, past the limit
    # by at most one block a branch
    plan = sequent_plan(sequent)
    atoms = lambek.sequent_atoms(lambek.parse_sequent(sequent))
    below, up_to = NodeBudget(10**8), NodeBudget(10**8)
    assert first_model(plan, atoms, k - 1, below) is None
    assert first_model(plan, atoms, k, up_to) is None
    limit = (below.used + up_to.used) // 2
    budget = NodeBudget(limit)
    with pytest.raises(ResourceLimitError) as err:
        first_model(plan, atoms, k, budget)
    assert err.value.bases_exhausted == k - 1
    assert 0 < budget.used - limit <= block_per_branch(plan)
    with pytest.raises(ResourceLimitError):
        scalar_run_plan(plan, k, NodeBudget(limit - below.used))


@pytest.mark.parametrize("sequent", ["p*q, q*r |- p*r", "(p/q)*q, (q/r)*r |- r*p"])
def test_budget_that_runs_out_before_a_deep_model_raises_with_the_scalar_walk(sequent):
    # three branches at base 2, the first model under a survivor of the
    # second that carries the nodes of many runs of its batch: a limit short
    # of the model's nodes raises, as the scalar walk does, past the limit
    # by at most one block a branch, the carried nodes spent whole
    plan = sequent_plan(sequent)
    found = NodeBudget(10**8)
    assert run_plan(plan, 2, found) is not None
    for limit in range(0, found.used, 50):
        budget = NodeBudget(limit)
        with pytest.raises(ResourceLimitError):
            run_plan(plan, 2, budget)
        assert 0 < budget.used - limit <= block_per_branch(plan)
        with pytest.raises(ResourceLimitError):
            scalar_run_plan(plan, 2, NodeBudget(limit))


@pytest.mark.parametrize("sequent, max_base, operation, flip, lane", [
    # lane 0 (the empty relation) made to fail p <= p, which the goal wants
    ("p |- p", 1, "subset_mask", lambda got, full: got ^ 1, "lane 0 of block 0 over base 1"),
    # lane 0 made to hold (0,0) in p*p, outside p
    ("p*p |- p", 1, "composition", lambda got, full: (got[0] ^ 1,) + got[1:],
     "lane 0 of block 0 over base 1"),
    # at base 2 the second branch takes the first's ten lex-leaders as one
    # batch of ten runs of 16 lanes; lane 16 of the batch is lane 0 of the
    # second run, p = {(0,0)} and q empty, so p*q is empty; given (0,1) there,
    # p*q escapes p, and the lane passes the sliced goal and fails the re-check
    ("p*q |- p", 2, "composition",
     lambda got, full: (got[0], got[1] ^ (full & 1 << 16)) + got[2:] if len(got) > 1 else got,
     "lane 0 of block 0 over base 2"),
])
def test_survivor_cross_check_catches_a_flipped_lane(monkeypatch, sequent, max_base, operation,
                                                     flip, lane):
    # operation names a relations function or, for an operation, the sliced
    # form of its table entry; flip gets its result and the batch's mask
    if operation in rel.OPERATIONS:
        op = rel.OPERATIONS[operation]
        flipped = dataclasses.replace(
            op, sliced=lambda k, full, r, s: flip(op.sliced(k, full, r, s), full))
        monkeypatch.setitem(rel.OPERATIONS, operation, flipped)
    else:
        original = getattr(rel, operation)
        monkeypatch.setattr(rel, operation, lambda full, r, s: flip(original(full, r, s), full))
    with pytest.raises(AssertionError, match=f"{lane} passed the sliced checks"):
        lambek.countermodel_search(lambek.parse_sequent(sequent), max_base=max_base)


@pytest.mark.parametrize("lane, caught", [(17, True), (32, False)])
def test_a_survivor_is_rechecked_only_when_the_walk_reaches_it(monkeypatch, lane, caught):
    # p*q |- r/r at base 2: the second branch sweeps q over a batch of the
    # ten lex-leaders of p and forces p*q, and the third branch takes its
    # 160 survivors as one batch; the first model, p = {(0,0)} and
    # q = {(0,1)}, lies under lane 18 of the second branch.  Pair (0,1) of
    # the sliced p*q is flipped in lane 17, before it, or in lane 32, past
    # it: the first is re-checked and its handed-on value refuted, the
    # second lies where the one-candidate walk never goes and is not
    sequent = lambek.parse_sequent("p*q |- r/r")
    expected = lambek.countermodel_search(sequent, max_base=2)
    op = rel.OPERATIONS["composition"]

    def flipped(k, full, r, s):
        got = op.sliced(k, full, r, s)
        return (got[0], got[1] ^ (full & 1 << lane)) + got[2:] if len(got) > 1 else got

    monkeypatch.setitem(rel.OPERATIONS, "composition", dataclasses.replace(op, sliced=flipped))
    if caught:
        with pytest.raises(AssertionError, match="lane 1 of block 0 over base 2 has a sliced value"):
            lambek.countermodel_search(sequent, max_base=2)
    else:
        assert lambek.countermodel_search(sequent, max_base=2) == expected


def test_search_budget_raises(c2):
    with pytest.raises(ResourceLimitError):
        search_representation(c2, 3, budget=NodeBudget(5))


def test_budget_is_the_explicit_limit_else_the_default(monkeypatch):
    # the library never reads RESQ_NODE_BUDGET; the CLI option does
    monkeypatch.setenv("RESQ_NODE_BUDGET", "abc")
    assert NodeBudget(12).limit == 12
    assert NodeBudget().limit == verifier.DEFAULT_NODE_BUDGET
    assert NodeBudget(default=7).limit == 7


def test_found_interpretations_reverify():
    for seed in (0, 1, 2):
        A, _ = algebra.generate_concrete(1, a4_generators(1, seed))
        found = search_representation(A, 2)
        if isinstance(found, Interpretation):
            assert check_representation(A, found).valid


# check_representation evaluates each operation once per distinct row key and
# right operand; check_representation_pairwise reads each pair of elements off
# the pair-set definitions.  The reports must agree, statuses and first
# witnesses included.


def assert_checkers_agree(S, interp):
    report = check_representation(S, interp)
    assert report.conditions == check_representation_pairwise(S, interp)
    return report


def test_checkers_agree_on_the_a4_draws():
    for seed in range(50):
        base = 1 + seed % 3
        A, interp = algebra.generate_concrete(base, a4_generators(base, seed))
        assert assert_checkers_agree(A, interp).valid


@pytest.mark.parametrize("mode", ["auto", "on", "off"])
def test_checkers_agree_on_the_pipeline_over_the_corpus(corpus_all, mode):
    failed = 0
    for A in corpus_all:
        result = relrep.represent_pipeline(A, unitalize_mode=mode)
        failed += not assert_checkers_agree(A, result.interpretation).valid
    assert failed > 0  # the residual conditions fail on part of the corpus


def test_ledger_statuses_are_the_ones_read_off_the_definitions(corpus_all):
    # every committed status of the frozen ledger, re-derived with the
    # pairwise checker on the pair-set definitions, not the library's checker
    ledger = json.loads((Path(__file__).parent / "data" / "cond34_ledger.json").read_text())
    assert len(ledger) == len(corpus_all) == 125
    assert ledger_entries(corpus_all) == ledger


def opposite(A):
    """A^op, whose a;b is b;a in A: its left residual a\\c is c/a in A and
    its right residual c/b is b\\c in A."""
    e = range(A.n)
    return dataclasses.replace(A, comp=tuple(tuple(A.comp[b][a] for b in e) for a in e),
                               lres=tuple(tuple(A.rres[c][a] for c in e) for a in e),
                               rres=tuple(tuple(A.lres[b][c] for b in e) for c in e))


def found_base(result):
    return result.base_size if isinstance(result, Interpretation) else result


def test_the_opposite_algebra_mirrors_every_verdict(corpus_small):
    # the converses represent A^op wherever the relations represent A, the
    # residuals trading places: (R;S)^c = S^c;R^c, (R\S)^c = S^c/R^c
    swapped = {"left-residual": "right-residual", "right-residual": "left-residual"}
    for A in corpus_small:
        op = opposite(A)
        assert algebra.validate(op).valid
        interp = relrep.represent_pipeline(A).interpretation
        converses = Interpretation(interp.names, interp.base_labels,
                                   tuple(map(rel.rel_converse, interp.relations)))
        statuses = {swapped.get(c.name, c.name): c.passed
                    for c in check_representation(A, interp).conditions}
        mirrored = {c.name: c.passed for c in check_representation(op, converses).conditions}
        assert mirrored == statuses
        assert found_base(search_representation(op, 2)) == found_base(search_representation(A, 2))


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
        for r in all_relations(k):
            for t in list(all_relations(k))[:8]:
                relations = (r, t) + found.relations[2:]
                assert_checkers_agree(S, Interpretation(S, found.base_labels, relations))


@functools.lru_cache(maxsize=None)
def small_interpretations() -> tuple:
    cases = []
    for seed in range(40):
        base = 1 + seed % 3
        try:
            cases.append(algebra.generate_concrete(base, a4_generators(base, seed),
                                                    max_relations=48))
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


# The mutations above change relations; those below change one cell of an
# operation table, so the checker must find the wrong entry of a table row
# (packed or tuple) and name the same first witness as the pairwise scan.

TABLE_FIELDS = {"composition": "comp", "left-residual": "lres", "right-residual": "rres"}


def with_cells(A, cells):
    """A with table[a][b] = c for each (name, a, b, c) of cells."""
    tables = {name: [list(row) for row in table] for name, table in A.operations}
    for name, a, b, c in cells:
        tables[name][a][b] = c
    return dataclasses.replace(A, **{TABLE_FIELDS[name]: tuple(map(tuple, table))
                                     for name, table in tables.items()})


def test_checkers_agree_with_table_cells_flipped_on_the_a4_closures():
    # one cell per table: in the first row of one table, the last row of
    # another and a drawn row of the third, the rows turning over the tables
    # from one draw to the next; the pairwise scan then stops at the cell
    for seed in range(50):
        base = 1 + seed % 3
        A, interp = algebra.generate_concrete(base, a4_generators(base, seed))
        if A.n < 2:
            continue
        rng = random.Random(seed)
        rows = [0, A.n - 1, rng.randrange(A.n)]
        cells = []
        for t, (name, table) in enumerate(A.operations):
            a = rows[(t + seed) % 3]
            b = rng.randrange(A.n)
            cells.append((name, a, b, (table[a][b] + rng.randrange(1, A.n)) % A.n))
        report = assert_checkers_agree(with_cells(A, cells), interp)
        # a closure's tables are right, so each flipped cell is a failure
        assert [c.witness[:2] for c in report.conditions[1:]] == [cell[1:3] for cell in cells]


# closures over bases whose codes fill native fields of 1, 2, 4 and 8 bytes
NATIVE_WIDTH_CLOSURES = [
    (2, [(0b01, 0)], 14, 1),
    (4, [(0b1110, 0b1100, 0b1000, 0)], 70, 2),  # the strict order
    (5, [(0, 4, 0, 0, 0), (8, 0, 8, 0, 0)], 42, 4),
    (6, [(16, 0, 0, 32, 0, 0), (0, 4, 4, 0, 0, 0)], 48, 8),
    (8, [(0, 4, 64, 4, 0, 0, 128, 4)], 32, 8),
]


@pytest.mark.parametrize("base, gens, size, width", NATIVE_WIDTH_CLOSURES)
def test_checkers_agree_with_table_cells_flipped_at_every_native_width(base, gens, size, width):
    # in each table a drawn cell of the first row and one of the last
    A, interp = algebra.generate_concrete(base, gens)
    assert (A.n, rel.code_bytes(base)) == (size, width)
    assert_checkers_agree(A, interp)
    rng = random.Random(base)
    for name, table in A.operations:
        for a in (0, A.n - 1):
            b = rng.randrange(A.n)
            c = (table[a][b] + rng.randrange(1, A.n)) % A.n
            report = assert_checkers_agree(with_cells(A, [(name, a, b, c)]), interp)
            assert report.condition(name).witness[:2] == (a, b)


def test_checkers_agree_with_table_cells_flipped_over_wide_bases(corpus_small):
    # the base-9 closures and a pipeline model over 10 points, whose codes are
    # wider than any native int; every cell of the first and of the last row
    # of every table, moved to every other element
    cases = [algebra.generate_concrete(9, gens) for gens in BASE_9_FAMILIES]
    A = next(A for A in corpus_small if relrep.represent_pipeline(A).interpretation.base_size >= 9)
    cases.append((A, relrep.represent_pipeline(A).interpretation))
    assert [interp.base_size for _, interp in cases] == [9, 9, 10]
    for A, interp in cases:
        assert_checkers_agree(A, interp)
        for name, table in A.operations:
            for a in {0, A.n - 1}:
                for b, c in itertools.product(range(A.n), repeat=2):
                    if c != table[a][b]:
                        assert_checkers_agree(with_cells(A, [(name, a, b, c)]), interp)


def test_checkers_agree_with_single_cells_flipped_on_a_50_point_model():
    # the pipeline's model of the 34-element closure whose completion has 50
    # elements: one pair of one relation flipped, then one cell of each
    # table moved, in its first and its last row
    A, Q, interp = quantale_50_model()
    assert (A.n, Q.size, interp.base_size) == (34, 50, 50)
    assert_checkers_agree(A, interp)
    rng = random.Random(50)
    for _ in range(10):
        e, x, y = rng.randrange(A.n), rng.randrange(50), rng.randrange(50)
        relations = list(interp.relations)
        relations[e] = relations[e][:x] + (relations[e][x] ^ 1 << y,) + relations[e][x + 1:]
        assert_checkers_agree(A, Interpretation(interp.names, interp.base_labels,
                                                tuple(relations)))
    for name, table in A.operations:
        for a in (0, A.n - 1):
            b = rng.randrange(A.n)
            c = (table[a][b] + rng.randrange(1, A.n)) % A.n
            assert_checkers_agree(with_cells(A, [(name, a, b, c)]), interp)


def with_order_bits(A, a, bits):
    """A with the bits of row a of its order flipped."""
    leq = list(A.leq)
    leq[a] ^= bits
    return dataclasses.replace(A, leq=tuple(leq))


def test_checkers_agree_with_order_bits_set_and_cleared():
    # an order the relations meet, one off-diagonal bit set and one cleared,
    # then every off-diagonal bit of one row flipped, on the 50-point model,
    # the base-9 closures and a closure per native code width: the order-iff
    # witness is the bit, or the row's first
    cases = [quantale_50_model()[::2]]
    cases += [algebra.generate_concrete(9, gens) for gens in BASE_9_FAMILIES]
    cases += [algebra.generate_concrete(base, gens) for base, gens, _, _ in NATIVE_WIDTH_CLOSURES]
    for A, interp in cases:
        assert check_representation(A, interp).condition("order-iff").passed
        rng = random.Random(A.n)
        pairs = [(a, b) for a in range(A.n) for b in range(A.n) if a != b]
        for holds in (True, False):
            a, b = rng.choice([(a, b) for a, b in pairs if A.le(a, b) == holds])
            report = assert_checkers_agree(with_order_bits(A, a, 1 << b), interp)
            assert report.condition("order-iff").witness == (a, b)
        a = rng.randrange(A.n)
        report = assert_checkers_agree(with_order_bits(A, a, (1 << A.n) - 1 ^ 1 << a), interp)
        assert report.condition("order-iff").witness == (a, 1 if a == 0 else 0)


def test_fewer_relations_than_elements_raise(c2):
    interp = Interpretation(c2.names[:1], ("0", "1"), ((1, 0),))
    with pytest.raises(DimensionMismatch, match=r"^the interpretation has fewer relations "
                                                r"\(1\) than the structure has elements \(2\)$"):
        check_representation(c2, interp)


def test_relations_past_the_elements_are_ignored(c2):
    # even over another base
    interp = relrep.represent_pipeline(c2).interpretation
    longer = Interpretation(interp.names + ("z",), interp.base_labels, interp.relations + ((1,),))
    assert check_representation(c2, longer) == check_representation(c2, interp)


def test_relations_over_different_bases_raise(c2):
    interp = Interpretation(c2, ("0", "1"), ((1, 0), (1,)))
    with pytest.raises(DimensionMismatch):
        check_representation(c2, interp)


def test_search_node_spending_is_frozen(c2):
    # the counts of the recursive walk the iterative one replaced
    budget = verifier.NodeBudget(10**6)
    assert search_representation(c2, 3, budget=budget) == Exhausted(3)
    assert budget.used == 158
    budget = verifier.NodeBudget(10**6)
    assert search_representation(c2, 4, budget=budget) == Exhausted(4)
    assert budget.used == 3361
    S = pointalg.reduct(pointalg.build_point_algebra(), [pointalg.ATOM_LT, pointalg.ATOM_GT])
    budget = verifier.NodeBudget(10**6)
    assert search_representation(S, 3, budget=budget).base_size == 3
    assert budget.used == 12188
    # each count is the exact threshold: as a limit it completes, one less
    # raises over the last base
    for struct, max_base, nodes in [(c2, 3, 158), (c2, 4, 3361), (S, 3, 12188)]:
        search_representation(struct, max_base, budget=NodeBudget(nodes))
        with pytest.raises(ResourceLimitError) as err:
            search_representation(struct, max_base, budget=NodeBudget(nodes - 1))
        assert err.value.bases_exhausted == max_base - 1


@pytest.mark.parametrize("budget, exhausted", [(1, 0), (5, 1), (40, 2)])
def test_budget_error_counts_the_bases_exhausted(c2, budget, exhausted):
    # C2 has no model over bases 1..3; 158 nodes exhaust all three
    with pytest.raises(ResourceLimitError) as err:
        search_representation(c2, 3, budget=NodeBudget(budget))
    assert err.value.bases_exhausted == exhausted
    assert f"while searching base {exhausted + 1};" in str(err.value)


def test_budget_error_outside_a_search_counts_no_bases():
    with pytest.raises(ResourceLimitError) as err:
        NodeBudget(1).spend(2)
    assert err.value.bases_exhausted is None
    assert str(err.value) == "node budget exhausted (limit 1)"
