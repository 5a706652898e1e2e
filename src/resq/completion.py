"""Dedekind-MacNeille completion of a finite residuated semigroup.

Subsets of the carrier are bitmask ints.  The closure operator m sends X to
the lower bounds of its upper bounds; its fixpoints, ordered by inclusion,
form a finite quantale under the closure of pairwise products, and the
lower-cone map embeds the original algebra into it.  The quantale's tables
are read off that lattice with whole-row lookups rather than by closing a
set per entry (build_quantale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import getitem
from typing import Callable

from .algebra import (
    CandidateMasks,
    Check,
    FiniteResiduatedSemigroup,
    Report,
    infer_residuals,
    join_semigroup_laws,
    residuation,
)
from .errors import EmbeddingViolation, NoResidualError, QuantaleLawError
from .relations import gather, inclusion_order, meet_rows, rel_converse, set_lanes


@dataclass(frozen=True)
class Quantale:
    """A finite complete lattice with a join-distributing associative product.

    Elements are indexed 0..size-1.  masks[i] is the underlying bit-vector of
    element i (a closed subset of the algebra carrier; unitalization adds one
    marker bit on top), and the order is exactly mask inclusion.  leq rows are
    bitmasks over quantale indices; comp and sup are index tables.
    candidate_masks is the candidate-mask pass of (leq, comp), built on its
    first read and shared by check_quantale_laws, quantale_residuals, the
    order reflection of relrep.represent_pipeline and the cones of
    relrep.hat.
    """

    labels: tuple[str, ...]
    masks: tuple[int, ...]
    leq: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]
    sup: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    unit: int | None
    candidate_masks: CandidateMasks = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidate_masks", CandidateMasks(self.leq, self.comp))

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def unital(self) -> bool:
        return self.unit is not None

    @property
    def operations(self) -> tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]:
        """The signature as (condition name, index table) pairs."""
        return (("composition", self.comp), ("join", self.sup))

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def index(self, mask: int) -> int:
        return self.masks.index(mask)


def closure_map(A: FiniteResiduatedSemigroup, down) -> Callable[[int], int]:
    """The closure operator m of A, X -> lower bounds of the upper bounds of X.

    down is the rows of the lower cones, rel_converse(A.leq).  The order rows
    and the lower cones are read once here, and each set is closed once: a
    caller that closes many sets of one algebra, some of them many times,
    pays for each once.
    """
    closed: dict[int, int] = {}
    up = A.leq
    full = (1 << A.n) - 1

    def close(x_mask: int) -> int:
        y = closed.get(x_mask)
        if y is None:
            y = closed[x_mask] = meet_rows(meet_rows(x_mask, up, full), down, full)
        return y

    return close


def subset_label(mask: int, names: tuple[str, ...]) -> str:
    members = sorted(names[i] for i in range(len(names)) if mask >> i & 1)
    return "{" + ",".join(members) + "}"


def _subset_sort_key(names: tuple[str, ...]):
    def key(mask: int):
        members = tuple(sorted(names[i] for i in range(len(names)) if mask >> i & 1))
        return (len(members), members)

    return key


def closed_sets(A: FiniteResiduatedSemigroup, down) -> tuple[int, ...]:
    """All m-closed subsets, sorted by cardinality then lexicographically.

    The closed sets are exactly the intersections of principal lower cones
    (down, rel_converse(A.leq); the image of the lower-bound map), so they
    are computed by closing {full} together with the cones under pairwise
    intersection instead of scanning all 2^n subsets.
    """
    full = (1 << A.n) - 1
    family = {full} | set(down)
    frontier = list(family)
    while frontier:
        fresh = set()
        for x in frontier:
            for cone in down:
                y = x & cone
                if y not in family and y not in fresh:
                    fresh.add(y)
        family |= fresh
        frontier = list(fresh)
    close = closure_map(A, down)
    for x in family:
        if close(x) != x:
            raise AssertionError(f"intersection closure produced a non-closed set {x:b}")
    return tuple(sorted(family, key=_subset_sort_key(A.names)))


def _maximal(x_mask: int, leq) -> int:
    """The maximal elements of X: those whose up-set meets X only in themselves."""
    out = 0
    m = x_mask
    while m:
        low = m & -m
        if leq[low.bit_length() - 1] & x_mask == low:
            out |= low
        m ^= low
    return out


def join_table(leq: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The join table of a finite lattice with order rows leq.

    Bit y of leq[x] is set iff x <= y, so leq[x] is the up-set of x.  The
    upper bounds of x and y are the elements above x v y, so
    up(x v y) = up(x) & up(y), and by antisymmetry no other element has that
    up-set: x v y is the element whose order row is leq[x] & leq[y].  Each
    row of joins is one map through the dict from order rows to indices.
    """
    at = {row: i for i, row in enumerate(leq)}
    return tuple(tuple(map(at.__getitem__, map(row.__and__, leq))) for row in leq)


def join_rows(sup, u, v) -> list[int]:
    """The elementwise join of the index rows u and v under the join table
    sup: sup[u[i]][v[i]] for each i."""
    return list(map(getitem, map(sup.__getitem__, u), v))


def _join_over(sup, mask: int, rows, empty):
    """The elementwise join of rows[i] over the bits i of mask; empty when
    mask is empty."""
    lanes = set_lanes(mask)
    acc = next(lanes, None)
    if acc is None:
        return empty
    acc = rows[acc]
    for i in lanes:
        acc = join_rows(sup, acc, rows[i])
    return acc


def build_quantale(A: FiniteResiduatedSemigroup) -> Quantale:
    """Quantale of closed sets: X;Y = m(pairwise products), sup = m(union).

    The closed sets ordered by inclusion are a lattice, so the joins are read
    off its order rows (join_table).  The products are joins of lower cones:

    * the upper bounds of a set S are those of the union of the lower cones
      of its members, so m(S) = m(U {down(s) : s in S});
    * each lower cone is closed, and the closure of a union of closed sets
      is their join, so m(S) is the join of the cones down(s), s in S, and
      the bottom m({}) when S is empty;
    * composition in a residuated semigroup is monotone, and each member of
      a finite set lies below a maximal one, so each product x;y of X;Y lies
      below a product a;b of maximal elements a of X and b of Y, and down(x;y)
      lies inside down(a;b).

    Hence X;Y = V {down(a;b) : a maximal in X, b maximal in Y}, built in two
    passes of elementwise row joins (join_rows): first, for each Y, the row
    over a of the join of down(a;b) over the maximal b of Y; then row X of
    the table joins, over the maximal a of X, row a of the transposition of
    those rows.
    """
    down = rel_converse(A.leq)  # the lower cones, for the closed sets and the products
    elems = closed_sets(A, down)
    index = {mask: i for i, mask in enumerate(elems)}
    size = len(elems)
    leq = inclusion_order([(mask,) for mask in elems])
    sup = join_table(leq)
    bottom = leq.index((1 << size) - 1)  # the one element whose up-set is everything
    top = index[(1 << A.n) - 1]
    cone = tuple(map(index.__getitem__, down))
    # cone_columns[b][a] is the index of down(a;b)
    cone_columns = tuple(zip(*[gather(cone, row) for row in A.comp]))
    tops = [_maximal(x, A.leq) for x in elems]
    by_right = [_join_over(sup, t, cone_columns, (bottom,) * A.n) for t in tops]
    by_left = tuple(zip(*by_right))  # by_left[a][j]: the join over maximal b of Y_j
    comp = tuple(tuple(_join_over(sup, t, by_left, (bottom,) * size)) for t in tops)
    unit = None
    for e in range(size):
        if all(comp[e][x] == x and comp[x][e] == x for x in range(size)):
            unit = e
            break
    labels = tuple(subset_label(mask, A.names) for mask in elems)
    Q = Quantale(
        labels=labels,
        masks=elems,
        leq=leq,
        comp=comp,
        sup=sup,
        bottom=bottom,
        top=top,
        unit=unit,
    )
    check_quantale_laws(Q)
    return Q


def check_quantale_laws(Q: Quantale) -> None:
    """Raise QuantaleLawError at the first law Q fails: the join-semigroup
    laws on (leq, sup, comp), then the bounds, the bottom absorbing
    composition and, when Q is unital, the unit laws, each of the last three
    at the first element that breaks it.  Binary distributivity plus
    absorption is distributivity over every join in a finite lattice.
    Distributivity is read off Q.candidate_masks (algebra.join_semigroup_laws),
    the pass that quantale_residuals and relrep's order reflection then
    reuse, and associativity is checked over the join-irreducibles of the
    lattice alone once distributivity holds.
    """
    bottom, top, comp, e = Q.bottom, Q.top, Q.comp, Q.unit
    checks = join_semigroup_laws(Q.leq, Q.sup, comp, Q.candidate_masks).conditions + tuple(
        Check(law, next(((a,) for a in range(Q.size) if not holds(a)), None))
        for law, holds in (
            ("bounds", lambda a: Q.le(bottom, a) and Q.le(a, top)),
            ("absorption", lambda a: comp[a][bottom] == bottom == comp[bottom][a]),
            ("unit", lambda a: e is None or comp[e][a] == a == comp[a][e]),
        )
    )
    failures = Report(checks).failures
    if failures:
        raise QuantaleLawError(failures[0].message())


def quantale_residuals(
    Q: Quantale,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Residual tables: a\\b = max{c : a;c <= b} and a/b = max{c : c;b <= a}.

    In a finite quantale each maximum exists and equals the supremum of its
    set.  The tables are checked exhaustively against the residuation law.
    Both the maxima and the law read Q.candidate_masks.
    """
    masks = Q.candidate_masks
    try:
        lres, rres = infer_residuals(Q.leq, Q.comp, masks=masks)
    except NoResidualError as exc:
        raise QuantaleLawError(f"residual missing: {exc}") from None
    law = Check("residuation", residuation(Q.leq, Q.comp, lres, rres, masks))
    if not law.passed:
        raise QuantaleLawError(law.message())
    return lres, rres


def embed(A: FiniteResiduatedSemigroup, Q: Quantale) -> tuple[int, ...]:
    """The lower-cone map a -> index of {x : x <= a} in Q.

    Checks injectivity, order preservation and reflection, and preservation
    of composition and both residuals; raises EmbeddingViolation otherwise.
    """
    down = rel_converse(A.leq)
    f = tuple(Q.index(down[a]) for a in range(A.n))
    if len(set(f)) != A.n:
        raise EmbeddingViolation("injectivity", (0,))
    qlres, qrres = quantale_residuals(Q)
    for a in range(A.n):
        for b in range(A.n):
            if A.le(a, b) != Q.le(f[a], f[b]):
                raise EmbeddingViolation("order", (a, b))
            if f[A.comp[a][b]] != Q.comp[f[a]][f[b]]:
                raise EmbeddingViolation("composition", (a, b))
            if f[A.lres[a][b]] != qlres[f[a]][f[b]]:
                raise EmbeddingViolation("left residual", (a, b))
            if f[A.rres[a][b]] != qrres[f[a]][f[b]]:
                raise EmbeddingViolation("right residual", (a, b))
    return f


def quantale_payload(Q: Quantale) -> dict:
    """JSON-ready dump; the text format renders the same fields."""
    return {
        "elements": list(Q.labels),
        "leq": [[1 if Q.le(i, j) else 0 for j in range(Q.size)] for i in range(Q.size)],
        "comp": [list(row) for row in Q.comp],
        "sup": [list(row) for row in Q.sup],
        "bottom": Q.bottom,
        "top": Q.top,
        "unital": Q.unital,
        "unit": Q.unit,
    }


def format_quantale_lines(payload: dict) -> list[str]:
    """The text dump of a quantale's JSON dump (quantale_payload)."""
    indices = range(len(payload["elements"]))
    leq, comp, sup = payload["leq"], payload["comp"], payload["sup"]
    return [
        "elements: " + " ".join(payload["elements"]),
        "leq:" + "".join(f" {i}<={j}" for i in indices for j in indices if leq[i][j]),
        "comp:" + "".join(f" {i};{j}={comp[i][j]}" for i in indices for j in indices),
        "sup:" + "".join(f" {i}+{j}={sup[i][j]}" for i in indices for j in indices),
        f"bottom: {payload['bottom']}",
        f"top: {payload['top']}",
        f"unit: {payload['unit'] if payload['unital'] else '-'}",
    ]
