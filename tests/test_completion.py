import pytest

from corpus import (
    closed_sets_by_scan,
    closure_by_definition,
    large_quantale_algebras,
    product_by_definition,
)
from resq import algebra, completion
from resq.algebra import down_masks
from resq.completion import (
    build_quantale,
    closed_sets,
    embed,
    lower_bounds,
    m_closure,
    quantale_residuals,
    upper_bounds,
)
from resq.errors import QuantaleLawError


def test_bounds_of_empty_set(c2):
    full = 0b11
    assert lower_bounds(0, c2) == full
    assert upper_bounds(0, c2) == full


def test_bounds_on_c2(c2):
    assert upper_bounds(0b01, c2) == 0b11  # u({a}) = {a, b}
    assert lower_bounds(0b11, c2) == 0b01  # l({a, b}) = {a}


def test_galois_identity_lul_equals_l(corpus_small):
    for A in corpus_small[:30]:
        for x in range(1 << A.n):
            lx = lower_bounds(x, A)
            assert lower_bounds(upper_bounds(lx, A), A) == lx


def test_m_closure_examples(c2):
    assert m_closure(0, c2) == 0b01  # m({}) = {a}
    assert m_closure(0b10, c2) == 0b11  # m({b}) = {a, b}


def test_lower_cones_are_closed(corpus_small):
    for A in corpus_small:
        down = down_masks(A.leq)
        for a in range(A.n):
            assert m_closure(down[a], A) == down[a]


def test_m_is_a_closure_operator(corpus_all):
    for A in corpus_all:
        subsets = range(1 << A.n)
        closures = [m_closure(x, A) for x in subsets]
        for x in subsets:
            mx = closures[x]
            assert x & ~mx == 0  # extensive
            assert closures[mx] == mx  # idempotent
        for x in subsets:
            for y in subsets:
                if x & ~y == 0:
                    assert closures[x] & ~closures[y] == 0  # monotone


def test_closed_sets_one_element():
    A = algebra.parse_algebra("elements: x\nleq: x<=x\ncomp: x;x=x\n")
    assert closed_sets(A) == (1,)


def test_closed_sets_c2(c2):
    assert closed_sets(c2) == (0b01, 0b11)


def test_closed_sets_match_exhaustive_scan(corpus_all):
    for A in corpus_all:
        assert closed_sets(A) == closed_sets_by_scan(A)


def test_build_quantale_one_element():
    A = algebra.parse_algebra("elements: x\nleq: x<=x\ncomp: x;x=x\n")
    Q = build_quantale(A)
    assert Q.size == 1 and Q.comp == ((0,),) and Q.unital


def test_build_quantale_c2(c2):
    Q = build_quantale(c2)
    assert Q.labels == ("{a}", "{a,b}")
    assert Q.comp == ((0, 0), (0, 0))
    assert Q.le(0, 1) and not Q.le(1, 0)
    assert Q.bottom == 0 and Q.top == 1
    assert not Q.unital


def _assert_tables_match_definition(A):
    Q = build_quantale(A)
    masks = Q.masks
    for i in range(Q.size):
        for j in range(Q.size):
            product = product_by_definition(masks[i], masks[j], A)
            assert masks[Q.comp[i][j]] == closure_by_definition(product, A), (i, j)
            assert masks[Q.sup[i][j]] == closure_by_definition(masks[i] | masks[j], A), (i, j)
    assert masks[Q.bottom] == closure_by_definition(0, A)
    return Q.size


def test_quantale_tables_match_closure_by_definition(corpus_all):
    for A in corpus_all:
        _assert_tables_match_definition(A)


def test_large_quantale_tables_match_closure_by_definition():
    sizes = [_assert_tables_match_definition(A) for A in large_quantale_algebras()]
    assert sizes == [16, 20, 32]


def test_nucleus_inequality(corpus_all):
    # m(X);m(Y) inside m(X;Y) pointwise, for closed X and Y
    for A in corpus_all:
        Q = build_quantale(A)
        for i in range(Q.size):
            for j in range(Q.size):
                raw = completion._pairwise_product(Q.masks[i], Q.masks[j], A)
                assert raw & ~Q.masks[Q.comp[i][j]] == 0


def test_meets_of_closed_sets_are_intersections(corpus_all):
    for A in corpus_all:
        Q = build_quantale(A)
        members = set(Q.masks)
        for x in Q.masks:
            for y in Q.masks:
                assert x & y in members


def test_quantale_laws_hold_across_corpus(corpus_all):
    for A in corpus_all:
        build_quantale(A)  # raises on any law violation


def test_check_quantale_laws_rejects_broken_table(c2):
    Q = build_quantale(c2)
    broken = completion.Quantale(
        labels=Q.labels,
        masks=Q.masks,
        leq=Q.leq,
        comp=((0, 1), (0, 0)),  # not associative with the rest
        sup=Q.sup,
        bottom=Q.bottom,
        top=Q.top,
        unital=False,
        unit=None,
    )
    with pytest.raises(QuantaleLawError):
        completion.check_quantale_laws(broken)


# the three-element chain 0 < 1 < 2 with joins as maxima; with the zero
# product it is a quantale, and each case below breaks one law of it
CHAIN3_LEQ = (0b111, 0b110, 0b100)
CHAIN3_SUP = tuple(tuple(max(i, j) for j in range(3)) for i in range(3))
ZERO3 = ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def _chain3(**changes):
    fields = dict(
        labels=("0", "1", "2"),
        masks=(0b001, 0b011, 0b111),
        leq=CHAIN3_LEQ,
        comp=ZERO3,
        sup=CHAIN3_SUP,
        bottom=0,
        top=2,
        unital=False,
        unit=None,
    )
    fields.update(changes)
    return completion.Quantale(**fields)


def test_check_quantale_laws_accepts_the_chain():
    completion.check_quantale_laws(_chain3())


@pytest.mark.parametrize(
    "changes, message",
    [
        # sup(1, 1) = 2 is an upper bound but not the least one
        ({"sup": ((0, 1, 2), (1, 2, 2), (2, 2, 2))}, "join_lub fails at (1, 1, 1)"),
        # 2 is not below the declared top
        ({"top": 1}, "bounds fails at (2)"),
        # 2;0 = 2: composition does not absorb the bottom
        ({"comp": ((0, 0, 0), (0, 0, 0), (2, 2, 2))}, "absorption fails at (2)"),
        # rows 1 and 2 are not monotone: left distributivity fails, right holds
        ({"comp": ((0, 0, 0), (0, 1, 0), (0, 2, 0))}, "distributivity fails at (1, 1, 2)"),
        # columns 1 and 2 are not monotone: right distributivity fails, left holds
        ({"comp": ((0, 0, 0), (0, 1, 2), (0, 0, 0))}, "distributivity fails at (1, 1, 2)"),
        # 2 is declared a unit but 2;1 = 0
        ({"unital": True, "unit": 2}, "unit fails at (1)"),
    ],
    ids=["sup-not-least", "bounds", "bottom-absorption", "left-distributivity",
         "right-distributivity", "unit"],
)
def test_check_quantale_laws_rejects_each_broken_law(changes, message):
    # every law check raises in one form: "<law> fails at (<witness>)"
    with pytest.raises(QuantaleLawError) as caught:
        completion.check_quantale_laws(_chain3(**changes))
    assert str(caught.value) == message


def test_quantale_residuals_c2(c2):
    Q = build_quantale(c2)
    lres, rres = quantale_residuals(Q)
    assert lres == ((1, 1), (1, 1))
    assert rres == ((1, 1), (1, 1))


def test_quantale_residuation_law(corpus_small):
    for A in corpus_small[:40]:
        Q = build_quantale(A)
        lres, rres = quantale_residuals(Q)
        for a in range(Q.size):
            for b in range(Q.size):
                for c in range(Q.size):
                    assert Q.le(c, lres[a][b]) == Q.le(Q.comp[a][c], b)
                    assert Q.le(c, rres[a][b]) == Q.le(Q.comp[c][b], a)


def test_unit_residual_in_unital_quantale(corpus_small):
    # dividing by a two-sided unit changes nothing: e\x = x
    seen = 0
    for A in corpus_small:
        Q = build_quantale(A)
        if not Q.unital:
            continue
        seen += 1
        lres, rres = quantale_residuals(Q)
        for x in range(Q.size):
            assert lres[Q.unit][x] == x
            assert rres[x][Q.unit] == x
    assert seen > 0


# the right-residual-by-sup formula admits a second reading with the product
# flipped; it is not adjoint to the composition, which this fixture witnesses
FLIPPED_WITNESS = (
    "elements: e0 e1 e2\n"
    "leq: e1<=e0 e2<=e0 e2<=e1\n"
    "comp: e0;e0=e0 e0;e1=e0 e0;e2=e2 e1;e0=e1 e1;e1=e1 e1;e2=e2 "
    "e2;e0=e2 e2;e1=e2 e2;e2=e2\n"
)


def _flipped_rres(Q):
    return tuple(
        tuple(
            Q.sup_of(c for c in range(Q.size) if Q.le(Q.comp[b][c], a))
            for b in range(Q.size)
        )
        for a in range(Q.size)
    )


def test_flipped_right_residual_reading_breaks_the_law():
    A = algebra.parse_algebra(FLIPPED_WITNESS)
    Q = build_quantale(A)
    _, rres = quantale_residuals(Q)
    flipped = _flipped_rres(Q)
    assert flipped != rres
    violations = [
        (a, b, c)
        for a in range(Q.size)
        for b in range(Q.size)
        for c in range(Q.size)
        if Q.le(c, flipped[a][b]) != Q.le(Q.comp[c][b], a)
    ]
    assert violations  # the law-consistent reading is the one the library uses


def test_flipped_reading_agrees_only_when_equal(corpus_small):
    for A in corpus_small[:40]:
        Q = build_quantale(A)
        _, rres = quantale_residuals(Q)
        flipped = _flipped_rres(Q)
        if flipped == rres:
            continue
        assert any(
            Q.le(c, flipped[a][b]) != Q.le(Q.comp[c][b], a)
            for a in range(Q.size)
            for b in range(Q.size)
            for c in range(Q.size)
        )


def test_embed_one_element():
    A = algebra.parse_algebra("elements: x\nleq: x<=x\ncomp: x;x=x\n")
    assert embed(A, build_quantale(A)) == (0,)


def test_embed_c2(c2):
    Q = build_quantale(c2)
    f = embed(c2, Q)
    assert f == (0, 1)
    lres, _ = quantale_residuals(Q)
    # a\a = b in C2 maps to the quantale residual of the images
    assert f[c2.lres[0][0]] == lres[f[0]][f[0]] == 1


def test_embed_preserves_everything(corpus_all):
    for A in corpus_all:
        embed(A, build_quantale(A))  # raises EmbeddingViolation on any failure


def test_element_order_sorts_by_cardinality_then_name():
    # same algebra as C2 but with names that reverse the index order
    A = algebra.parse_algebra(
        "elements: z k\nleq: z<=k\ncomp: z;z=z z;k=z k;z=z k;k=z\n"
    )
    Q = build_quantale(A)
    assert Q.labels == ("{z}", "{k,z}")


def test_dump_is_deterministic(c2):
    Q = build_quantale(c2)
    assert completion.format_quantale(Q) == completion.format_quantale(build_quantale(c2))
    payload = completion.quantale_payload(Q)
    assert payload["elements"] == ["{a}", "{a,b}"]
    assert payload["bottom"] == 0 and payload["unital"] is False
