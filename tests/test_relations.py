import json
import operator
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from corpus import (
    a4_generators,
    all_relations,
    canonical_relations_by_scan,
    encode_relation,
    inclusion_order_by_loops,
    make_c2,
    permute_relation,
    quantale_50_model,
)
from resq import algebra, cli, lambek, pointalg, relrep, verifier
from resq import relations as rel
from resq.algebra import transitivity
from resq.completion import build_quantale
from resq.errors import DimensionMismatch


def mask_relation(n):
    return st.integers(0, (1 << (n * n)) - 1).map(lambda c: rel.decode_relation(c, n))


COMPOSE, LRES, RRES = (rel.OPERATIONS[name].apply for name in
                        ("composition", "left-residual", "right-residual"))


def test_compose_empty_annihilates():
    r = rel.relation_from_pairs(2, [(0, 1), (1, 0)])
    assert COMPOSE(rel.empty_relation(2), r) == rel.empty_relation(2)
    assert COMPOSE(r, rel.empty_relation(2)) == rel.empty_relation(2)


def test_lres_of_empty_is_full():
    s = rel.relation_from_pairs(2, [(0, 0)])
    assert LRES(rel.empty_relation(2), s) == (0b11, 0b11)


def test_lres_pointwise_example():
    # r = {(0,0)} over a 2-point base
    r = rel.relation_from_pairs(2, [(0, 0)])
    expected = rel.relation_from_pairs(2, [(0, 0), (1, 0), (1, 1)])
    assert LRES(r, r) == expected
    assert (0, 1) not in rel.relation_pairs(LRES(r, r))


def test_rres_pointwise_example():
    # r/s keeps (x, y) iff every successor of y under s is a successor of x under r
    r = rel.relation_from_pairs(2, [(0, 0), (0, 1)])
    s = rel.relation_from_pairs(2, [(1, 0)])
    assert set(rel.relation_pairs(RRES(r, s))) == {(0, 0), (0, 1), (1, 0)}


def test_compose_associative_on_samples():
    rs = [rel.decode_relation(c, 3) for c in (0, 5, 73, 300, 511)]
    for a in rs:
        for b in rs:
            for c in rs:
                assert COMPOSE(COMPOSE(a, b), c) == COMPOSE(a, COMPOSE(b, c))


@given(mask_relation(3), mask_relation(3), mask_relation(3))
def test_left_residuation_adjunction(r, s, t):
    # s <= r\t iff r;s <= t
    assert rel.rel_subset(s, LRES(r, t)) == rel.rel_subset(COMPOSE(r, s), t)


@given(mask_relation(3), mask_relation(3), mask_relation(3))
def test_right_residuation_adjunction(r, s, t):
    # r <= t/s iff r;s <= t
    assert rel.rel_subset(r, RRES(t, s)) == rel.rel_subset(COMPOSE(r, s), t)


def assert_kernel_matches_pairs(r, s):
    # every operation and the inclusion, against its pair-set definition
    for name, op in rel.OPERATIONS.items():
        assert op.apply(r, s) == oracles.apply(name, r, s), name
    assert rel.rel_subset(r, s) == oracles.included(r, s)


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_matches_pair_sets_exhaustively(n):
    for r in all_relations(n):
        for s in all_relations(n):
            assert_kernel_matches_pairs(r, s)


@given(st.data(), st.sampled_from([3, 4]))
def test_kernel_matches_pair_sets_at_bases_three_and_four(data, n):
    r = data.draw(mask_relation(n))
    s = data.draw(mask_relation(n))
    assert_kernel_matches_pairs(r, s)


@pytest.mark.parametrize("name", [*rel.OPERATIONS, "subset"])
@pytest.mark.parametrize("r, s", [((0,), (0, 0)), ((0, 0), (0,))], ids=["short-left", "short-right"])
def test_dimension_mismatch_raises(name, r, s):
    apply = rel.rel_subset if name == "subset" else rel.OPERATIONS[name].apply
    with pytest.raises(DimensionMismatch, match="bases of size"):
        apply(r, s)


def test_transitivity():
    # a relation is order rows, so the transitivity law reads it directly
    assert transitivity(rel.relation_from_pairs(3, [(0, 1), (1, 2), (0, 2)])) is None
    assert transitivity(rel.relation_from_pairs(3, [(0, 1), (1, 2)])) == (0, 1, 2)


def test_identity_and_pair_round_trip():
    assert rel.relation_pairs((0b001, 0b010, 0b100)) == [(0, 0), (1, 1), (2, 2)]
    pairs = [(0, 2), (1, 0), (2, 2)]
    assert rel.relation_pairs(rel.relation_from_pairs(3, pairs)) == sorted(pairs)


def test_canonical_relations_cover_all_orbits():
    reps = rel.canonical_relations(2)
    # every relation permutes onto a representative
    import itertools

    perms = list(itertools.permutations(range(2)))
    for r in all_relations(2):
        assert any(permute_relation(r, p) in reps for p in perms)
    # representatives are minimal encodings, hence ascending and duplicate-free
    codes = [encode_relation(r) for r in reps]
    assert codes == sorted(set(codes))


@pytest.mark.parametrize("k, orbits", [(1, 2), (2, 10), (3, 104), (4, 3044)])
def test_canonical_relations_count_the_orbits(k, orbits):
    # the number of relations on k unlabeled points (OEIS A000595)
    assert len(rel.canonical_relations(k)) == orbits


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sliced_lex_leaders_are_the_minimal_encodings_of_the_scan(k):
    assert rel.canonical_relations(k) == canonical_relations_by_scan(k)


def test_canonical_relations_at_base_five_count_the_orbits():
    # 512 blocks of 2**16 lanes; A000595 again
    assert len(rel.canonical_relations(5)) == 291968


def lane_relation(sliced, k: int, lane: int):
    """The relation lane holds in a sliced relation."""
    return tuple(sum(1 << y for y in range(k) if sliced[x * k + y] >> lane & 1) for x in range(k))


SLICED_KERNELS = [(op.sliced, op.apply) for op in rel.OPERATIONS.values()]


@given(st.data(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_sliced_operations_agree_lane_by_lane(data, k):
    # a batch of runs, one run at base 4, where a block is as wide as a batch
    width = rel.lane_bits(k)
    runs = data.draw(st.integers(1, 1 if k == 4 else 5))
    full = rel.full_mask(k, runs)
    lanes = data.draw(st.lists(st.integers(0, (runs << width) - 1), min_size=1, max_size=6))
    spread = data.draw(st.lists(mask_relation(k), min_size=runs, max_size=runs))
    # operands as (sliced relation, relation of a lane): run i holding
    # spread[i] in every lane, or lane j of each run the relation with
    # encoding j
    constant = (rel.spread_slices(list(map(rel.relation_code, spread)), k),
                lambda lane: spread[lane >> width])
    block = (rel.block_slices(k, 0, runs),
             lambda lane: rel.decode_relation(lane & ((1 << width) - 1), k))
    for (left, left_of), (right, right_of) in ((constant, block), (block, constant), (block, block)):
        results = [(sliced(k, full, left, right), scalar) for sliced, scalar in SLICED_KERNELS]
        inside = rel.subset_mask(full, left, right)
        same = rel.equal_mask(full, left, right)
        for out, scalar in results:
            # each lane's code, read off the slices at once
            assert rel.lane_codes(k, runs, out, lanes) == [
                rel.relation_code(scalar(left_of(lane), right_of(lane))) for lane in lanes]
        for lane in lanes:
            a, b = left_of(lane), right_of(lane)
            for out, scalar in results:
                assert lane_relation(out, k, lane) == scalar(a, b)
            assert (inside >> lane & 1) == rel.rel_subset(a, b)
            assert (same >> lane & 1) == (a == b)


def code_relation(code: int, k: int) -> tuple[int, ...]:
    """The relation over k points whose pair (x, y) is bit x * k + y of code."""
    return tuple(code >> x * k & ((1 << k) - 1) for x in range(k))


@pytest.mark.parametrize("k, codes", [
    (1, [1]),
    (2, [0b0110]),
    (3, [0b011_100_110]),
    (2, [0, 0b1111, 0b0110, 0b1001, 0b0011]),  # a batch of five runs
])
def test_every_lane_of_the_sliced_kernels_agrees_with_the_pair_set_definitions(k, codes):
    # every lane of block 0 in each run (2, 16 and 512 lanes a run), with run
    # i of the spread operand holding codes[i] in every lane, in both orders
    # and against itself, checked against tests/oracles.py, which shares no
    # code with resq; the kernels take the lanes of x less those of y as
    # x ^ (x & y), which needs every slice and mask to lie in [0, full]
    runs, width = len(codes), rel.lane_bits(k)
    full = rel.full_mask(k, runs)
    assert full == (1 << (runs << width)) - 1
    spread = (rel.spread_slices(codes, k), lambda lane: code_relation(codes[lane >> width], k))
    block = (rel.block_slices(k, 0, runs),
             lambda lane: code_relation(lane & ((1 << width) - 1), k))
    orders = ((spread, block), (block, spread), (block, block))
    for (left, left_of), (right, right_of) in orders:
        assert all(0 <= s <= full for s in left + right)
        outs = {name: op.sliced(k, full, left, right) for name, op in rel.OPERATIONS.items()}
        inside = rel.subset_mask(full, left, right)
        same = rel.equal_mask(full, left, right)
        assert all(0 <= s <= full for out in outs.values() for s in out)
        assert 0 <= inside <= full and 0 <= same <= full
        for lane in range(runs << width):
            a, b = left_of(lane), right_of(lane)
            for name, out in outs.items():
                assert lane_relation(out, k, lane) == oracles.apply(name, a, b), (name, lane)
            assert (inside >> lane & 1) == oracles.included(a, b), lane
            assert (same >> lane & 1) == (a == b), lane


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_full_batch_spreads_every_run_and_tiles_every_block(k):
    # 2**BLOCK_BITS lanes: 32 768 runs of two lanes, 4 096 of 16, 128 of 512
    width = rel.lane_bits(k)
    runs = 1 << (rel.BLOCK_BITS - width)
    codes = [i * 7919 % (1 << k * k) for i in range(runs)]
    sliced = rel.spread_slices(codes, k)
    tiled = rel.block_slices(k, 0, runs)
    assert all(s >> (1 << rel.BLOCK_BITS) == 0 for s in sliced + tiled)
    for lane in random.Random(k).sample(range(1 << rel.BLOCK_BITS), 64):
        assert lane_relation(sliced, k, lane) == rel.decode_relation(codes[lane >> width], k)
        assert lane_relation(tiled, k, lane) == rel.decode_relation(lane & ((1 << width) - 1), k)


def run_relations(sliced, k: int, runs: int) -> list:
    """The relation each run of a sliced relation holds in all of its lanes,
    None for a run whose lanes differ; no slice may reach past the runs."""
    lanes = 1 << rel.lane_bits(k)
    size = runs * lanes
    assert all(s >> size == 0 for s in sliced)
    bits = [format(s, f"0{size}b")[::-1] for s in sliced]
    full, empty = "1" * lanes, "0" * lanes
    out = []
    for i in range(runs):
        fields = [b[i * lanes:(i + 1) * lanes] for b in bits]
        out.append(tuple(sum(1 << y for y in range(k) if fields[x * k + y] == full)
                         for x in range(k))
                   if all(f in (full, empty) for f in fields) else None)
    return out


def spread_run_counts(k: int) -> list[int]:
    """The run counts up to a full batch that the pairwise join of
    spread_slices pads or splits differently: 0 to 3, some odd counts, and
    2**j - 1, 2**j and 2**j + 1."""
    most = 1 << (rel.BLOCK_BITS - rel.lane_bits(k))
    counts = {0, 1, 2, 3, 5, 7, 11, 13, 99, most - 2}
    for j in range(1, most.bit_length()):
        counts.update(((1 << j) - 1, 1 << j, (1 << j) + 1))
    return sorted(c for c in counts if 0 <= c <= most)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_spread_slices_hold_each_code_in_every_lane_of_its_run(k):
    # every run of every count, up to a full batch (one run from k = 4 on)
    rng = random.Random(k)
    for runs in spread_run_counts(k):
        codes = [rng.randrange(1 << k * k) for _ in range(runs)]
        if runs:
            codes[-1] = (1 << k * k) - 1  # the last run full in every slice
        sliced = rel.spread_slices(codes, k)
        assert len(sliced) == k * k
        assert run_relations(sliced, k, runs) == [rel.decode_relation(c, k) for c in codes]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_spreading_no_codes_gives_empty_slices(k):
    assert rel.spread_slices([], k) == (0,) * (k * k)


@given(st.integers(0, rel.block_count(5) - 1), st.lists(st.integers(0, (1 << 16) - 1), max_size=8))
@settings(max_examples=30, deadline=None)
def test_a_block_at_base_five_decodes_each_lane_to_its_code(block, lanes):
    slices = rel.block_slices(5, block)
    for lane in lanes:
        assert lane_relation(slices, 5, lane) == rel.decode_relation(block * (1 << 16) + lane, 5)


def test_set_lanes_lists_the_set_bits_ascending():
    assert list(rel.set_lanes(0)) == []
    assert list(rel.set_lanes(0b1011 << 70)) == [70, 71, 73]


def test_permute_relation_relabels_pairs():
    r = rel.relation_from_pairs(3, [(0, 1), (2, 0)])
    p = (1, 2, 0)  # new point i is old point p[i]
    out = permute_relation(r, p)
    expected = {(p.index(x), p.index(y)) for x, y in rel.relation_pairs(r)}
    assert set(rel.relation_pairs(out)) == expected


def test_converse_swaps_pairs():
    r = rel.relation_from_pairs(3, [(0, 1), (2, 0), (2, 2)])
    assert set(rel.relation_pairs(rel.rel_converse(r))) == {(1, 0), (0, 2), (2, 2)}


# Stacked families over bases 0-10 and 63-65, where a field stops being a
# native int (field_bits), of 0, 1, 2 and 33 members.  A member's density is
# drawn from empty, full, sparse and dense, so the exchanges of rows are
# checked on single sparse members as well as on dense and mixed stacks.

STACK_BASES = [*range(11), 63, 64, 65]
STACK_SIZES = (0, 1, 2, 33)


def random_family(n, m, seed):
    rng = random.Random(seed)
    densities = (0.5, 0.0, 1.0, 0.02, 0.9)
    family = []
    for j in range(m):
        density = densities[j] if j < len(densities) else rng.random()
        family.append(tuple(sum(1 << y for y in range(n) if rng.random() < density)
                            for _ in range(n)))
    return family


def pair_converse(r):
    return {(y, x) for x, y in rel.relation_pairs(r)}


@pytest.mark.parametrize("m", STACK_SIZES)
@pytest.mark.parametrize("n", STACK_BASES)
def test_transpose_is_the_pair_set_converse(n, m):
    family = random_family(n, m, 1000 * n + m)
    # the default fields and those of codes (not a power of two above base 8)
    for s in (rel.stack(family, n), rel.stack_codes(map(rel.relation_code, family), n)):
        assert (len(s.rows), s.count) == (n, m)
        assert rel.unstack(s) == family
        converses = rel.unstack(rel.transpose(s))
        assert len(converses) == m
        for r, c in zip(family, converses):
            assert set(rel.relation_pairs(c)) == pair_converse(r)
            assert rel.rel_converse(r) == c
        # transposed afresh, the converses give back the family; a stack
        # carrying its columns transposes to them without a second pass
        again = rel.transpose(rel.Stack((*rel.transpose(s)[:3], None)))
        assert again[:3] == s[:3]
        carried = rel.with_columns(s)
        assert carried.columns == rel.transpose(s).rows
        assert rel.transpose(carried)[:3] == rel.transpose(s)[:3]
        assert rel.transpose(rel.transpose(s)).rows == s.rows


def test_field_bits_hold_a_power_of_two_of_at_least_n():
    assert [rel.field_bits(n) for n in range(0, 11)] == [8] * 9 + [16, 16]
    assert [rel.field_bits(n) for n in (16, 17, 32, 33, 63, 64, 65, 4096)] == [
        16, 32, 32, 64, 64, 64, 128, 4096]
    for n in range(0, 66):
        assert rel.field_bits(n) <= rel.code_bits(n) == 8 * rel.code_bytes(n)


@pytest.mark.parametrize("m", STACK_SIZES)
@pytest.mark.parametrize("n", STACK_BASES)
def test_family_rows_are_apply_member_by_member(n, m):
    # the row each key of r gives against a stack, one field per member, is
    # row x of op(r, s) for every member s
    family = random_family(n, m, 1000 * n + m + 7)
    lefts = random_family(n, 4, 1000 * n + m + 8)  # half full, empty, full, sparse
    # with and without the columns of the stacks
    plain = (rel.stack(family, n), rel.stack(lefts, n))
    for s, stacked in (plain, tuple(map(rel.with_columns, plain))):
        for name, op in rel.OPERATIONS.items():
            for r, keys in zip(lefts, op.keys(lefts, stacked)):
                assert keys == op.keys([r], rel.stack([r], n))[0]
                packed = op.rows(keys, s)
                assert len(packed) == n
                fields = rel.stacked_rows(packed, s)
                for j, t in enumerate(family):
                    assert tuple(row[j] for row in fields) == op.apply(r, t), (name, j)


def test_right_residual_rows_at_a_large_base_match_pair_sets():
    # keys of no point, of every point, of one run, of runs with gaps and of
    # scattered points, against the identity, its complement and a random s
    n = 100
    rng = random.Random(100)
    full = (1 << n) - 1
    keys = [0, full, 1, 1 << (n - 1), 0b1111 << 40, full ^ (1 << 50), full ^ 0b11011 << 30,
            *(rng.getrandbits(n) for _ in range(6))]
    op = rel.OPERATIONS["right-residual"]
    identity = tuple(1 << y for y in range(n))
    for s in (identity, tuple(full ^ row for row in identity),
              tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n))):
        assert op.rows(keys, rel.stack([s], n)) == [pair_row("right-residual", n, key, s)
                                                    for key in keys]


# Row x of each operation against s as a function of one key: the key is a
# row mask (composition, right residual), a column mask (left residual) or a
# (position, row mask) pair (join).  The row is read off the definition of
# the whole operation, on a relation whose row or column x is the key.  An
# operation added to relations.OPERATIONS needs its kind of key here.


def pair_row(name, n, key, s):
    x, mask = key if name == "join" else (0, key)
    if name == "left-residual":
        r = tuple(1 << x if mask >> z & 1 else 0 for z in range(n))
    else:
        r = tuple(mask if z == x else 0 for z in range(n))
    return oracles.apply(name, r, s)[x]


KEYED_OPS = list(rel.OPERATIONS)


def row_key(name, n):
    """Strategy for one key of the operation name over n points."""
    mask = st.integers(0, (1 << n) - 1)
    if name == "join":
        return st.tuples(st.integers(0, n - 1), mask)
    return mask


@given(st.data(), st.sampled_from(KEYED_OPS), st.integers(1, 4))
def test_rows_of_keys_match_the_definitions(data, name, n):
    # the empty key first: the left residual's rule gives it the full row
    op = rel.OPERATIONS[name]
    empty = rel.empty_relation(n)
    keys = [op.keys([empty], rel.stack([empty], n))[0][0]] + data.draw(
        st.lists(row_key(name, n), max_size=3 * n))
    s = data.draw(mask_relation(n))
    assert op.rows(keys, rel.stack([s], n)) == [pair_row(name, n, key, s) for key in keys]


@given(st.data(), st.sampled_from(KEYED_OPS), st.integers(1, 4))
def test_rows_depend_only_on_their_key(data, name, n):
    # row locality: r and r' with the same row x and column x have the same
    # key x, and give the same row x of op(., s), which the pair-set
    # definition reads off that key
    op = rel.OPERATIONS[name]
    r = data.draw(mask_relation(n))
    other = data.draw(mask_relation(n))
    s = data.draw(mask_relation(n))
    x = data.draw(st.integers(0, n - 1))
    bit = 1 << x
    other = tuple(o & ~bit | r[z] & bit for z, o in enumerate(other))
    other = other[:x] + (r[x],) + other[x + 1:]
    (key_other, key_r) = (keys[x] for keys in op.keys([other, r], rel.stack([other, r], n)))
    assert key_other == key_r
    assert op.apply(other, s)[x] == op.apply(r, s)[x] == pair_row(name, n, key_r, s)


def test_code_fields_are_1_2_4_or_8_bytes_up_to_base_8():
    assert [rel.code_bytes(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 8, 8, 8, 11, 13]
    assert [rel.native_codes(n) for n in range(1, 11)] == [True] * 8 + [False] * 2
    for n in range(1, 11):
        width = rel.code_bytes(n)
        top = (1 << (n * n)) - 1
        codes = [0, top, 1, top >> 1, 1 << (n * n - 1), 0]
        reference = b"".join(code.to_bytes(width, "little") for code in codes)
        assert rel.code_fields(codes, n) == reference
        assert rel.code_fields(tuple(codes), n) == reference
        assert rel.code_fields((code for code in codes), n) == reference
        assert rel.code_fields([], n) == b""


def test_gather_is_a_tuple_for_any_number_of_indices():
    values = [10, 11, 12]
    assert rel.gather(values, []) == ()
    assert rel.gather(values, [2]) == (12,)
    assert rel.gather(values, (2, 0, 2)) == (12, 10, 12)
    assert rel.gather({5: "a", 7: "b"}, [7, 5]) == ("b", "a")


@pytest.mark.parametrize("n", range(1, 10))
def test_codes_round_trip_at_every_field_width(n):
    top = (1 << (n * n)) - 1
    codes = [0, top, 1, 1 << (n * n - 1), top >> 1, 0, top]
    for code in codes:
        r = rel.decode_relation(code, n)
        assert rel.relation_code(r) == encode_relation(r) == code
    assert rel.decode_relation(top, n) == ((1 << n) - 1,) * n
    fields = rel.code_fields(codes, n)
    assert len(fields) == len(codes) * rel.code_bytes(n)
    packed = rel.pack_fields(fields)
    assert list(rel.unpack_codes([packed], len(codes), n)) == codes
    assert list(rel.unpack_codes([packed, 0, packed], len(codes), n)) == codes + [0] * 7 + codes
    assert list(rel.unpack_codes([], 3, n)) == []


@given(st.integers(1, 9).flatmap(lambda n: st.lists(mask_relation(n), max_size=6)))
def test_operation_codes_shift_packed_rows_into_packed_codes(family):
    # the composition's keys 1, 2, 4, ..., the rows of the identity, give
    # row x of every member as one packed row, shifted to x * n: the packed
    # codes of the members, with no carry from one field to the next
    n = len(family[0]) if family else 1
    stacked = rel.stack_codes(map(rel.relation_code, family), n)
    (packed,) = rel.OPERATIONS["composition"].codes([tuple(1 << x for x in range(n))], stacked)
    assert packed == rel.pack_fields(rel.code_fields(map(rel.relation_code, family), n))
    assert [rel.decode_relation(code, n)
            for code in rel.unpack_codes([packed], len(family), n)] == family


@given(st.data(), st.sampled_from(KEYED_OPS), st.sampled_from([1, 2, 3, 4, 9]))
def test_operation_codes_are_the_codes_of_op(data, name, n):
    # keys read off one family, rows against another: the closure's step of
    # the members before a run against the run
    op = rel.OPERATIONS[name]
    left = data.draw(st.lists(mask_relation(n), min_size=1, max_size=4))
    right = data.draw(st.lists(mask_relation(n), min_size=1, max_size=5))
    keyed = op.keys(left, rel.stack(left, n))
    stacked = rel.stack_codes(map(rel.relation_code, right), n)
    codes = rel.unpack_codes(op.codes(keyed, stacked), len(right), n)
    assert list(codes) == [rel.relation_code(op.apply(r, s)) for r in left for s in right]


@st.composite
def ordered_families(draw, n, max_size=12):
    """Families over n points with inclusions among their members: drawn
    relations, meets of drawn pairs of them and repeats, in any order."""
    family = draw(st.lists(mask_relation(n), max_size=max_size))
    if family:
        pairs = draw(st.lists(st.tuples(st.sampled_from(family), st.sampled_from(family)),
                              max_size=max_size))
        family += [tuple(map(operator.and_, r, s)) for r, s in pairs]
        family += draw(st.lists(st.sampled_from(family), max_size=4))
    return draw(st.permutations(family))


def distinct_keys(family) -> int:
    """The distinct (y, row y) keys of the members of family."""
    return sum(len(set(column)) for column in zip(*family))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(mask_relation(n), max_size=12)))
def test_inclusion_order_matches_pairwise_subset(family):
    order = rel.inclusion_order(family)
    assert len(order) == len(family)
    for i, r in enumerate(family):
        for j, s in enumerate(family):
            assert bool(order[i] >> j & 1) == rel.rel_subset(r, s)


@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12]).flatmap(ordered_families))
def test_inclusion_order_matches_pairwise_subset_on_every_stack(family):
    # the plain family, stacked with fields of whole bytes; its stack of
    # rows, 9-12 points included; and its stack of codes, whose fields are
    # 1 (bases 1-2), 2 (3-4), 4 (5) and 8 bytes (6-8) wide, and wider above
    want = inclusion_order_by_loops(family)
    assert rel.inclusion_order(family) == want
    if family:
        n = len(family[0])
        codes = rel.stack_codes(map(rel.relation_code, family), n)
        assert rel.inclusion_order(family, rel.stack(family, n)) == want
        assert rel.inclusion_order(family, codes) == want


@given(st.integers(1, 130).flatmap(
    lambda bits: st.lists(st.integers(0, (1 << bits) - 1), max_size=40)))
def test_inclusion_order_of_masks_as_one_row_relations(masks):
    # the completion's closed sets, one row of up to 130 bits, wider than any
    # native field; repeats included
    family = [(m,) for m in masks + masks[::3]]
    assert rel.inclusion_order(family) == inclusion_order_by_loops(family)


@pytest.mark.parametrize("n, size, more_keys", [
    (2, 40, False), (3, 60, False), (4, 12, True), (9, 8, True), (12, 30, True)])
def test_inclusion_order_on_both_sides_of_the_key_count(n, size, more_keys):
    # one compression per distinct key when there are fewer keys than
    # members, one per member otherwise
    rng = random.Random(size)
    family = [tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n))
              for _ in range(size)]
    family += [tuple(map(operator.and_, r, s)) for r, s in zip(family, family[1:])]
    assert (distinct_keys(family) > len(family)) == more_keys
    want = inclusion_order_by_loops(family)
    assert want != tuple(1 << i for i in range(len(family)))  # some inclusion between members
    assert rel.inclusion_order(family) == want
    assert rel.inclusion_order(family, rel.stack(family, n)) == want


def test_inclusion_order_on_the_shapes_of_the_pipeline():
    # the 50-point model's relations, more keys than members, and the
    # 431-member closure of a4-20, fewer keys than members, each read off the
    # stack its caller holds
    A, _, interp = quantale_50_model()
    hats = interp.relations
    closure = algebra.close_relation_family(a4_generators(3, 20), 3)
    assert (len(hats), distinct_keys(hats)) == (34, 422)
    assert (len(closure), distinct_keys(closure)) == (431, 24)
    assert rel.inclusion_order(hats, rel.stack(hats, 50)) == inclusion_order_by_loops(hats) == A.leq
    stacked = rel.stack_codes(map(rel.relation_code, closure), 3)
    assert rel.inclusion_order(closure, stacked) == inclusion_order_by_loops(closure) == closure.leq


def test_inclusion_order_of_empty_and_one_member_families():
    assert rel.inclusion_order([]) == ()
    assert rel.inclusion_order([()]) == (1,)
    assert rel.inclusion_order([(), ()]) == (0b11, 0b11)
    assert rel.inclusion_order([(0b10, 0b01)]) == (1,)
    assert rel.inclusion_order([(0b10, 0b01)], rel.stack([(0b10, 0b01)], 2)) == (1,)
    assert rel.inclusion_order([(5,), (5,), (1,)]) == (0b011, 0b011, 0b111)


def test_inclusion_order_of_bitmasks_as_one_row_relations():
    masks = [0b011, 0b001, 0b111, 0b100]
    order = rel.inclusion_order([(m,) for m in masks])
    assert order == tuple(sum(1 << j for j, y in enumerate(masks) if not x & ~y) for x in masks)


def test_every_listed_operation_and_connective_is_in_the_table(c2):
    S = pointalg.reduct(pointalg.build_point_algebra(), [pointalg.ATOM_LT, pointalg.ATOM_EQ])
    for structure in (c2, build_quantale(c2), S):
        assert {name for name, _ in structure.operations} <= set(rel.OPERATIONS)
    assert set(lambek.CONNECTIVE_OPERATION) == {lambek.Prod, lambek.Under, lambek.Over}
    assert set(lambek.CONNECTIVE_OPERATION.values()) <= set(rel.OPERATIONS)


def random_interpretation(k: int) -> rel.Interpretation:
    rng = random.Random(k)
    names = ("p", "q", "r")[:rng.randint(1, 3)]
    relations = tuple(tuple(rng.getrandbits(k) for _ in range(k)) for _ in names)
    return rel.Interpretation(names, tuple(map(str, range(k))), relations)


ROUND_TRIP_INPUTS = {
    "c2-pipeline-dump": lambda: relrep.represent_pipeline(make_c2()).interpretation,
    "found-base-1": lambda: verifier.search_representation(
        algebra.parse_algebra("elements: x\nleq: x<=x\ncomp: x;x=x\n"), 1),
    **{f"random-base-{k}": lambda k=k: random_interpretation(k) for k in range(1, 5)},
}

# each writer of a dump or model, read back by the reader of its form; the
# found search and lambek counter payloads carry keys the readers ignore
ROUND_TRIP_WRITERS = {
    "text-dump": lambda I: rel.parse_interpretation(rel.format_interpretation(I), I.names),
    "json-dump": lambda I: rel.parse_interpretation(
        json.dumps(rel.interpretation_payload(I)), I.names),
    "search-found-payload": lambda I: rel.parse_interpretation(
        json.dumps(cli._search_verdict("search", I, 0, {}, []).payload()), I.names),
    "counter-payload": lambda I: rel.parse_model(json.dumps(
        {"command": "lambek-counter", "sequent": "p |- q", "verdict": "found",
         "semantics": "square", **rel.model_payload(I), "stats": {"nodes": 0}})),
}


@pytest.mark.parametrize("source", ROUND_TRIP_INPUTS)
@pytest.mark.parametrize("writer", ROUND_TRIP_WRITERS)
def test_every_writer_reads_back_to_the_same_interpretation(writer, source):
    I = ROUND_TRIP_INPUTS[source]()
    assert list(I.names) == sorted(I.names)  # a model's atoms come back sorted
    if writer == "counter-payload":
        I = replace(I, base_labels=tuple(map(str, range(I.base_size))))  # a model numbers its points
    assert ROUND_TRIP_WRITERS[writer](I) == I
