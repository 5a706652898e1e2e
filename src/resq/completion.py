"""Dedekind-MacNeille completion of a finite residuated semigroup.

Subsets of the carrier are bitmask ints.  The closure operator m sends X to
the lower bounds of its upper bounds; its fixpoints, ordered by inclusion,
form a finite quantale under the closure of pairwise products, and the
lower-cone map embeds the original algebra into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import (
    Check,
    FiniteResiduatedSemigroup,
    Report,
    down_masks,
    inclusion_order,
    infer_residuals,
    join_semigroup_laws,
    residuation,
)
from .errors import EmbeddingViolation, NoResidualError, QuantaleLawError


@dataclass(frozen=True)
class Quantale:
    """A finite complete lattice with a join-distributing associative product.

    Elements are indexed 0..size-1.  masks[i] is the underlying bit-vector of
    element i (a closed subset of the algebra carrier; unitalization adds one
    marker bit on top), and the order is exactly mask inclusion.  leq rows are
    bitmasks over quantale indices; comp and sup are index tables.
    """

    labels: tuple[str, ...]
    masks: tuple[int, ...]
    leq: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]
    sup: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    unital: bool
    unit: int | None

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def operations(self) -> tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]:
        """The signature as (condition name, index table) pairs."""
        return (("composition", self.comp), ("join", self.sup))

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def index(self, mask: int) -> int:
        return self.masks.index(mask)

    def sup_of(self, indices) -> int:
        acc = self.bottom
        for i in indices:
            acc = self.sup[acc][i]
        return acc


def _meet_rows(mask: int, rows, full: int) -> int:
    """The intersection of rows[i] over the bits i of mask; full when mask is empty."""
    acc = full
    while mask:
        low = mask & -mask
        acc &= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def lower_bounds(x_mask: int, A: FiniteResiduatedSemigroup) -> int:
    """{y : y <= x for every x in X}; the full carrier when X is empty."""
    return _meet_rows(x_mask, down_masks(A.leq), (1 << A.n) - 1)


def upper_bounds(x_mask: int, A: FiniteResiduatedSemigroup) -> int:
    return _meet_rows(x_mask, A.leq, (1 << A.n) - 1)


def closure_map(A: FiniteResiduatedSemigroup) -> Callable[[int], int]:
    """The closure operator m of A, X -> lower bounds of the upper bounds of X.

    The order rows and the lower cones are read once here, so a caller that
    closes many sets of one algebra pays for them once.
    """
    up = A.leq
    down = down_masks(A.leq)
    full = (1 << A.n) - 1

    def close(x_mask: int) -> int:
        return _meet_rows(_meet_rows(x_mask, up, full), down, full)

    return close


def m_closure(x_mask: int, A: FiniteResiduatedSemigroup) -> int:
    return closure_map(A)(x_mask)


def subset_label(mask: int, names: tuple[str, ...]) -> str:
    members = sorted(names[i] for i in range(len(names)) if mask >> i & 1)
    return "{" + ",".join(members) + "}"


def _subset_sort_key(names: tuple[str, ...]):
    def key(mask: int):
        members = tuple(sorted(names[i] for i in range(len(names)) if mask >> i & 1))
        return (len(members), members)

    return key


def closed_sets(A: FiniteResiduatedSemigroup) -> tuple[int, ...]:
    """All m-closed subsets, sorted by cardinality then lexicographically.

    The closed sets are exactly the intersections of principal lower cones
    (the image of the lower-bound map), so they are computed by closing
    {full} together with the cones under pairwise intersection instead of
    scanning all 2^n subsets.
    """
    down = down_masks(A.leq)
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
    close = closure_map(A)
    for x in family:
        if close(x) != x:
            raise AssertionError(f"intersection closure produced a non-closed set {x:b}")
    return tuple(sorted(family, key=_subset_sort_key(A.names)))


def _pairwise_product(x_mask: int, y_mask: int, A: FiniteResiduatedSemigroup) -> int:
    acc = 0
    xs = x_mask
    while xs:
        xlow = xs & -xs
        row = A.comp[xlow.bit_length() - 1]
        ys = y_mask
        while ys:
            ylow = ys & -ys
            acc |= 1 << row[ylow.bit_length() - 1]
            ys ^= ylow
        xs ^= xlow
    return acc


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


def build_quantale(A: FiniteResiduatedSemigroup) -> Quantale:
    """Quantale of closed sets: X;Y = m(pairwise products), sup = m(union).

    Composition in a residuated semigroup is monotone, so every product x;y
    of X;Y lies below a product of maximal elements of X and Y; those
    products have the same upper bounds, hence the same closure, as all of
    X;Y.
    """
    elems = closed_sets(A)
    index = {mask: i for i, mask in enumerate(elems)}
    size = len(elems)
    leq = inclusion_order(elems)
    close = closure_map(A)
    tops = [_maximal(x, A.leq) for x in elems]
    comp = tuple(
        tuple(index[close(_pairwise_product(x, y, A))] for y in tops) for x in tops
    )
    sup = tuple(tuple(index[close(x | y)] for y in elems) for x in elems)
    bottom = index[close(0)]
    top = index[(1 << A.n) - 1]
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
        unital=unit is not None,
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
    """
    bottom, top, comp, e = Q.bottom, Q.top, Q.comp, Q.unit
    checks = join_semigroup_laws(Q.leq, Q.sup, comp).conditions + tuple(
        Check(law, next(((a,) for a in range(Q.size) if not holds(a)), None))
        for law, holds in (
            ("bounds", lambda a: Q.le(bottom, a) and Q.le(a, top)),
            ("absorption", lambda a: comp[a][bottom] == bottom == comp[bottom][a]),
            ("unit", lambda a: not Q.unital or e is not None and comp[e][a] == a == comp[a][e]),
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
    """
    try:
        lres, rres = infer_residuals(Q.leq, Q.comp)
    except NoResidualError as exc:
        raise QuantaleLawError(f"residual missing: {exc}") from None
    law = Check("residuation", residuation(Q.leq, Q.comp, lres, rres))
    if not law.passed:
        raise QuantaleLawError(law.message())
    return lres, rres


def embed(A: FiniteResiduatedSemigroup, Q: Quantale) -> tuple[int, ...]:
    """The lower-cone map a -> index of {x : x <= a} in Q.

    Checks injectivity, order preservation and reflection, and preservation
    of composition and both residuals; raises EmbeddingViolation otherwise.
    """
    down = down_masks(A.leq)
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


def format_quantale(Q: Quantale) -> str:
    lines = ["elements: " + " ".join(Q.labels)]
    lines.append(
        "leq:"
        + "".join(
            f" {i}<={j}"
            for i in range(Q.size)
            for j in range(Q.size)
            if Q.le(i, j)
        )
    )
    lines.append(
        "comp:" + "".join(f" {i};{j}={Q.comp[i][j]}" for i in range(Q.size) for j in range(Q.size))
    )
    lines.append(
        "sup:" + "".join(f" {i}+{j}={Q.sup[i][j]}" for i in range(Q.size) for j in range(Q.size))
    )
    lines.append(f"bottom: {Q.bottom}")
    lines.append(f"top: {Q.top}")
    lines.append(f"unit: {Q.unit if Q.unital else '-'}")
    return "\n".join(lines) + "\n"
