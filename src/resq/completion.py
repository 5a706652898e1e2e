"""Dedekind-MacNeille completion of a finite residuated semigroup.

Subsets of the carrier are bitmask ints.  The closure operator m sends X to
the lower bounds of its upper bounds; its fixpoints, ordered by inclusion,
form a finite quantale under the closure of pairwise products, and the
lower-cone map embeds the original algebra into it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    FiniteResiduatedSemigroup,
    antisymmetry,
    associativity,
    distributivity,
    down_masks,
    inclusion_order,
    infer_residuals,
    join_lub,
    reflexivity,
    residuation,
    transitivity,
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


def lower_bounds(x_mask: int, A: FiniteResiduatedSemigroup) -> int:
    """{y : y <= x for every x in X}; the full carrier when X is empty."""
    down = down_masks(A.leq)
    acc = (1 << A.n) - 1
    m = x_mask
    while m:
        low = m & -m
        acc &= down[low.bit_length() - 1]
        m ^= low
    return acc


def upper_bounds(x_mask: int, A: FiniteResiduatedSemigroup) -> int:
    acc = (1 << A.n) - 1
    m = x_mask
    while m:
        low = m & -m
        acc &= A.leq[low.bit_length() - 1]
        m ^= low
    return acc


def m_closure(x_mask: int, A: FiniteResiduatedSemigroup) -> int:
    return lower_bounds(upper_bounds(x_mask, A), A)


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
    for x in family:
        if m_closure(x, A) != x:
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


def build_quantale(A: FiniteResiduatedSemigroup) -> Quantale:
    """Quantale of closed sets: X;Y = m(pairwise products), sup = m(union)."""
    elems = closed_sets(A)
    index = {mask: i for i, mask in enumerate(elems)}
    size = len(elems)
    leq = inclusion_order(elems)
    comp = tuple(
        tuple(index[m_closure(_pairwise_product(elems[i], elems[j], A), A)] for j in range(size))
        for i in range(size)
    )
    sup = tuple(
        tuple(index[m_closure(elems[i] | elems[j], A)] for j in range(size))
        for i in range(size)
    )
    bottom = index[m_closure(0, A)]
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
    """Raise QuantaleLawError unless Q satisfies every required law.

    Distributivity is checked in its finite surrogate (binary joins plus the
    bottom), which is equivalent to arbitrary-join distributivity in a finite
    lattice.
    """
    size = Q.size
    for law, witness in (
        ("order not reflexive", reflexivity(Q.leq)),
        ("order not antisymmetric", antisymmetry(Q.leq)),
        ("order not transitive", transitivity(Q.leq)),
        ("sup is not the least upper bound", join_lub(Q.leq, Q.sup)),
        ("composition not associative", associativity(Q.comp)),
        ("composition does not distribute over sup", distributivity(Q.sup, Q.comp)),
    ):
        if witness is not None:
            raise QuantaleLawError(f"{law} at {witness}")
    for a in range(size):
        if not Q.le(Q.bottom, a) or not Q.le(a, Q.top):
            raise QuantaleLawError(f"bounds violated at {a}")
        if Q.comp[a][Q.bottom] != Q.bottom or Q.comp[Q.bottom][a] != Q.bottom:
            raise QuantaleLawError(f"composition does not absorb bottom at {a}")
    if Q.unital:
        e = Q.unit
        if e is None or any(Q.comp[e][x] != x or Q.comp[x][e] != x for x in range(size)):
            raise QuantaleLawError("unit laws fail")


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
    witness = residuation(Q.leq, Q.comp, lres, rres)
    if witness is not None:
        raise QuantaleLawError(f"residuation law fails at {witness}")
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
