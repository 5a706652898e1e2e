import pytest
from hypothesis import given, strategies as st

from resq import relations as rel
from resq.errors import DimensionMismatch


def mask_relation(n):
    return st.integers(0, (1 << (n * n)) - 1).map(lambda c: rel.decode_relation(c, n))


def test_compose_empty_annihilates():
    r = rel.relation_from_pairs(2, [(0, 1), (1, 0)])
    assert rel.rel_compose(rel.empty_relation(2), r) == rel.empty_relation(2)
    assert rel.rel_compose(r, rel.empty_relation(2)) == rel.empty_relation(2)


def test_lres_of_empty_is_full():
    s = rel.relation_from_pairs(2, [(0, 0)])
    assert rel.rel_lres(rel.empty_relation(2), s) == rel.full_relation(2)


def test_lres_pointwise_example():
    # r = {(0,0)} over a 2-point base
    r = rel.relation_from_pairs(2, [(0, 0)])
    expected = rel.relation_from_pairs(2, [(0, 0), (1, 0), (1, 1)])
    assert rel.rel_lres(r, r) == expected
    assert (0, 1) not in rel.relation_pairs(rel.rel_lres(r, r))


def test_rres_pointwise_example():
    # r/s keeps (x, y) iff every successor of y under s is a successor of x under r
    r = rel.relation_from_pairs(2, [(0, 0), (0, 1)])
    s = rel.relation_from_pairs(2, [(1, 0)])
    assert set(rel.relation_pairs(rel.rel_rres(r, s))) == {(0, 0), (0, 1), (1, 0)}


def test_compose_associative_on_samples():
    rs = [rel.decode_relation(c, 3) for c in (0, 5, 73, 300, 511)]
    for a in rs:
        for b in rs:
            for c in rs:
                assert rel.rel_compose(rel.rel_compose(a, b), c) == rel.rel_compose(
                    a, rel.rel_compose(b, c)
                )


@given(mask_relation(3), mask_relation(3), mask_relation(3))
def test_left_residuation_adjunction(r, s, t):
    # s <= r\t iff r;s <= t
    assert rel.rel_subset(s, rel.rel_lres(r, t)) == rel.rel_subset(rel.rel_compose(r, s), t)


@given(mask_relation(3), mask_relation(3), mask_relation(3))
def test_right_residuation_adjunction(r, s, t):
    # r <= t/s iff r;s <= t
    assert rel.rel_subset(r, rel.rel_rres(t, s)) == rel.rel_subset(rel.rel_compose(r, s), t)


@given(mask_relation(2), mask_relation(2))
def test_union_and_subset_agree_with_pairs(r, s):
    union_pairs = set(rel.relation_pairs(rel.rel_union(r, s)))
    assert union_pairs == set(rel.relation_pairs(r)) | set(rel.relation_pairs(s))
    assert rel.rel_subset(r, s) == (set(rel.relation_pairs(r)) <= set(rel.relation_pairs(s)))


# Pair-set definitions of the kernel operations, the oracle for the bit loops.


def pair_compose(n, r, s):
    return {(x, z) for x in range(n) for z in range(n)
            if any((x, y) in r and (y, z) in s for y in range(n))}


def pair_lres(n, r, s):
    return {(x, y) for x in range(n) for y in range(n)
            if all((z, y) in s for z in range(n) if (z, x) in r)}


def pair_rres(n, r, s):
    return {(x, y) for x in range(n) for y in range(n)
            if all((x, z) in r for z in range(n) if (y, z) in s)}


def assert_kernel_matches_pairs(n, r, s):
    rp, sp = set(rel.relation_pairs(r)), set(rel.relation_pairs(s))
    assert set(rel.relation_pairs(rel.rel_compose(r, s))) == pair_compose(n, rp, sp)
    assert set(rel.relation_pairs(rel.rel_lres(r, s))) == pair_lres(n, rp, sp)
    assert set(rel.relation_pairs(rel.rel_rres(r, s))) == pair_rres(n, rp, sp)
    assert rel.rel_subset(r, s) == (rp <= sp)


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_matches_pair_sets_exhaustively(n):
    for r in rel.all_relations(n):
        for s in rel.all_relations(n):
            assert_kernel_matches_pairs(n, r, s)


@given(st.data(), st.sampled_from([3, 4]))
def test_kernel_matches_pair_sets_at_bases_three_and_four(data, n):
    r = data.draw(mask_relation(n))
    s = data.draw(mask_relation(n))
    assert_kernel_matches_pairs(n, r, s)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        rel.rel_compose((0,), (0, 0))
    with pytest.raises(DimensionMismatch):
        rel.rel_lres((0, 0), (0,))
    with pytest.raises(DimensionMismatch):
        rel.rel_rres((0,), (0, 0))


def test_transitivity():
    assert rel.is_transitive(rel.relation_from_pairs(3, [(0, 1), (1, 2), (0, 2)]))
    assert not rel.is_transitive(rel.relation_from_pairs(3, [(0, 1), (1, 2)]))


def test_identity_and_pair_round_trip():
    ident = rel.identity_relation(3)
    assert rel.relation_pairs(ident) == [(0, 0), (1, 1), (2, 2)]
    pairs = [(0, 2), (1, 0), (2, 2)]
    assert rel.relation_pairs(rel.relation_from_pairs(3, pairs)) == sorted(pairs)


def test_canonical_relations_cover_all_orbits():
    reps = rel.canonical_relations(2)
    # every relation permutes onto a representative
    import itertools

    perms = list(itertools.permutations(range(2)))
    for r in rel.all_relations(2):
        assert any(rel.permute_relation(r, p) in reps for p in perms)
    # representatives are minimal encodings, hence ascending and duplicate-free
    codes = [rel.encode_relation(r) for r in reps]
    assert codes == sorted(set(codes))


def test_permute_relation_relabels_pairs():
    r = rel.relation_from_pairs(3, [(0, 1), (2, 0)])
    p = (1, 2, 0)  # new point i is old point p[i]
    out = rel.permute_relation(r, p)
    expected = {(p.index(x), p.index(y)) for x, y in rel.relation_pairs(r)}
    assert set(rel.relation_pairs(out)) == expected
