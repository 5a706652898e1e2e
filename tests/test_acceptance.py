"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Expected values marked as
regression constants were computed once by the stated independent oracle and
frozen here; a change in any of them is a behaviour change, not a tolerance
issue.
"""

import itertools
import json
import time
from pathlib import Path

import pytest

from corpus import closed_sets_by_scan, dense_chain_table, make_c2
from resq import algebra, completion, lambek, pointalg, relrep, verifier
from resq import relations as rel
from resq.algebra import FiniteResiduatedSemigroup
from resq.relations import Interpretation
from resq.verifier import Exhausted

# counts of valid structures among all labeled (order, composition, residual)
# table combinations, frozen after the first agreed run of both checkers
VALID_STRUCTURE_COUNTS = {1: 1, 2: 6}

# labeled residuated semigroups found by enumerate_algebras, frozen
ENUMERATION_COUNTS = {1: 1, 2: 6, 3: 93}

N3_SAMPLE_SIZE = 4000


def naive_validate(A: FiniteResiduatedSemigroup) -> bool:
    """Plain-loop axiom checker, independent of the library implementation."""
    n = A.n
    order = {(i, j) for i in range(n) for j in range(n) if A.leq[i] >> j & 1}
    if not all((i, i) in order for i in range(n)):
        return False
    if any((i, j) in order and (j, i) in order and i != j for i in range(n) for j in range(n)):
        return False
    if any(
        (i, j) in order and (j, k) in order and (i, k) not in order
        for i in range(n)
        for j in range(n)
        for k in range(n)
    ):
        return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if A.comp[A.comp[a][b]][c] != A.comp[a][A.comp[b][c]]:
                    return False
                if (a, b) in order:
                    if (A.comp[a][c], A.comp[b][c]) not in order:
                        return False
                    if (A.comp[c][a], A.comp[c][b]) not in order:
                        return False
                t1 = (b, A.lres[a][c]) in order
                t2 = (A.comp[a][b], c) in order
                t3 = (a, A.rres[c][b]) in order
                if not (t1 == t2 == t3):
                    return False
    return True


def all_structures(n):
    names = algebra.default_names(n)
    tables = list(itertools.product(itertools.product(range(n), repeat=n), repeat=n))
    for leq in itertools.product(range(1 << n), repeat=n):
        for comp in tables:
            for lres in tables:
                for rres in tables:
                    yield FiniteResiduatedSemigroup(names, leq, comp, lres, rres)


def test_A1_validator_oracle_equivalence():
    start = time.time()
    for n, frozen_count in VALID_STRUCTURE_COUNTS.items():
        count = 0
        for A in all_structures(n):
            verdict = algebra.validate(A).valid
            assert verdict == naive_validate(A)
            count += verdict
        assert count == frozen_count

    # sampled structures at n = 3: deterministic LCG over the table space
    state = 12345
    names = algebra.default_names(3)

    def nxt(bound):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return state % bound

    for _ in range(N3_SAMPLE_SIZE):
        leq = tuple(nxt(8) | (1 << i) for i in range(3))
        tables = [
            tuple(tuple(nxt(3) for _ in range(3)) for _ in range(3)) for _ in range(3)
        ]
        A = FiniteResiduatedSemigroup(names, leq, *tables)
        assert algebra.validate(A).valid == naive_validate(A)

    for n, frozen_count in ENUMERATION_COUNTS.items():
        assert len(list(algebra.enumerate_algebras(n))) == frozen_count

    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nA1 PASS: validator agrees with the naive checker; "
          f"valid counts {VALID_STRUCTURE_COUNTS}, enumeration {ENUMERATION_COUNTS} "
          f"({elapsed:.1f}s)")


def test_A2_completion_properties(corpus_all):
    start = time.time()
    for A in corpus_all:
        subsets = range(1 << A.n)
        closures = [completion.m_closure(x, A) for x in subsets]
        for x in subsets:
            assert x & ~closures[x] == 0
            assert closures[closures[x]] == closures[x]
            for y in subsets:
                if x & ~y == 0:
                    assert closures[x] & ~closures[y] == 0
        assert completion.closed_sets(A) == closed_sets_by_scan(A)
        Q = completion.build_quantale(A)  # all quantale laws
        for i in range(Q.size):
            for j in range(Q.size):
                raw = completion._pairwise_product(Q.masks[i], Q.masks[j], A)
                assert raw & ~Q.masks[Q.comp[i][j]] == 0  # nucleus inequality
    elapsed = time.time() - start
    assert elapsed < 120
    print(f"\nA2 PASS: closure-operator, closed-set, nucleus and quantale laws "
          f"on {len(corpus_all)} corpus algebras ({elapsed:.1f}s)")


def test_A3_lower_cone_embedding(corpus_all):
    for A in corpus_all:
        Q = completion.build_quantale(A)
        completion.embed(A, Q)  # raises EmbeddingViolation on any failure
    print(f"\nA3 PASS: lower-cone embedding injective, order-reflecting and "
          f"operation-preserving on {len(corpus_all)} corpus algebras")


def test_A4_verifier_soundness_on_concrete_structures():
    count = 0
    for seed in range(50):
        base = 1 + seed % 3
        A, interp = algebra.generate_concrete(base, seed=seed)
        report = verifier.check_representation(A, interp)
        assert report.all_pass, (seed, report)
        count += 1
    print(f"\nA4 PASS: identity interpretation passes all four conditions on "
          f"{count} generated relation families (bases 1..3)")


def test_A5_pipeline_and_sensitivity(corpus_all):
    # (i) C2 with unitalization off: exactly the expected order violation
    c2 = make_c2()
    off = relrep.represent(c2, unitalize_mode="off")
    report = verifier.check_representation(c2, off)
    cond1 = report.condition("order-iff")
    assert not cond1.passed and cond1.witness == (1, 0)

    # (ii) defaults: order and composition conditions hold corpus-wide
    statuses = {}
    for A in corpus_all:
        interp = relrep.represent(A)
        rep = verifier.check_representation(A, interp)
        assert rep.condition("order-iff").passed, algebra.serialize(A)
        assert rep.condition("composition").passed, algebra.serialize(A)
        statuses[algebra.serialize(A)] = {
            "left-residual": rep.condition("left-residual").passed,
            "right-residual": rep.condition("right-residual").passed,
        }

    # (iii) residual-condition statuses are frozen; any drift fails the suite
    ledger_path = Path(__file__).parent / "data" / "cond34_ledger.json"
    ledger = json.loads(ledger_path.read_text())
    assert statuses == ledger
    passing = sum(1 for v in ledger.values() if v["left-residual"] and v["right-residual"])
    print(f"\nA5 PASS: C2 sensitivity witness (b, a); conditions 1-2 hold on "
          f"{len(corpus_all)} corpus algebras; residual-condition ledger "
          f"unchanged ({passing}/{len(ledger)} entries pass both)")


def test_A6_hat_map_laws(corpus_all):
    start = time.time()
    checked = 0
    for A in corpus_all:
        Q = completion.build_quantale(A)
        for quantale in (Q, relrep.unitalize(Q)):
            G = relrep.generators(quantale, "all")
            hats = [relrep.hat(quantale, G, a) for a in range(quantale.size)]
            for a in range(quantale.size):
                for b in range(quantale.size):
                    if quantale.le(a, b):
                        assert rel.rel_subset(hats[a], hats[b])
                    assert rel.rel_compose(hats[a], hats[b]) == hats[quantale.comp[a][b]]
            if quantale.unital:
                for a in range(quantale.size):
                    for b in range(quantale.size):
                        if rel.rel_subset(hats[a], hats[b]):
                            assert quantale.le(a, b)
            checked += 1
            if quantale is Q and Q.unital:
                break  # unitalize() returned Q itself; nothing new to check
    elapsed = time.time() - start
    print(f"\nA6 PASS: hat monotonicity and composition preservation on "
          f"{checked} quantales; order reflection on all unital ones ({elapsed:.1f}s)")


def test_A7_lambek_suite():
    from test_lambek import DERIVABLE, UNDERIVABLE

    start = time.time()
    for text in DERIVABLE:
        assert lambek.derivable(lambek.parse_sequent(text)), text
    for text in UNDERIVABLE:
        assert not lambek.derivable(lambek.parse_sequent(text)), text

    # full countermodel enumeration for the derivable sequents on <= 2 atoms
    for text in DERIVABLE:
        s = lambek.parse_sequent(text)
        if len(lambek.sequent_atoms(s)) > 2:
            continue
        assert lambek.countermodel_search(s, max_base=2) == Exhausted(2), text

    s = lambek.parse_sequent("p*q |- q*p")
    model = lambek.RelationalModel(
        2,
        (
            ("p", rel.relation_from_pairs(2, [(0, 1)])),
            ("q", rel.relation_from_pairs(2, [(1, 0)])),
        ),
    )
    assert not lambek.evaluate(s, model)
    elapsed = time.time() - start
    assert elapsed < 300
    print(f"\nA7 PASS: 20-sequent fixture verdicts, countermodel exhaustion for "
          f"derivable sequents at base <= 2, explicit refutation of p*q |- q*p "
          f"({elapsed:.1f}s)")


def test_A8_point_algebra():
    P = pointalg.build_point_algebra()
    assert P.comp == dense_chain_table()

    S = pointalg.reduct(P, [pointalg.ATOM_LT, pointalg.ATOM_EQ])
    result, stats = pointalg.frp_probe(S, 3)
    assert isinstance(result, Interpretation) and result.base_size == 2
    assert verifier.check_representation(S, result).all_pass

    # regression constant, frozen after the first exhaustive run: the default
    # reduct admits a 3-point model of the join/composition/order conditions
    S2 = pointalg.reduct(P, [pointalg.ATOM_LT, pointalg.ATOM_GT])
    result2, stats2 = pointalg.frp_probe(S2, 3)
    assert isinstance(result2, Interpretation) and result2.base_size == 3
    assert verifier.check_representation(S2, result2).all_pass
    assert stats2.nodes <= verifier.default_node_budget()
    print(f"\nA8 PASS: composition table matches the dense-chain oracle; "
          f"{{<,=}}-reduct represented at base 2; {{<,>}}-reduct probe verdict "
          f"frozen (found at base 3, {stats2.nodes} nodes, {stats2.seconds:.2f}s)")
