"""Relational representation of a finite quantale and the induced interpretation.

Every quantale element a becomes the relation of pairs (g, q) with g <= a;q,
over the quantale carrier as a base.  Composing the lower-cone embedding with
this hat map interprets the original algebra by relations over a finite base.
Without a unit the hat map can conflate distinct elements, so an optional
unitalization step freely adjoins one.

Both are built from whole rows of the quantale's tables.  Row q of the
converse of hat(a) is the lower cone of a;q, so the hats of all the embedded
elements are one gather of lower cones per element and one transposition of
the lot.  The unitalized joins are read off its order rows, the up-set of
x v y being that of x meet that of y (completion.join_table), and each block
of its product is a row of Q.comp joined elementwise with a constant or the
identity row (completion.join_rows).

The dump of the interpretation is read and written by resq.relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from . import relations as rel
from .algebra import Check, FiniteResiduatedSemigroup, order_reflection
from .completion import (
    Quantale,
    build_quantale,
    check_quantale_laws,
    embed,
    join_rows,
    join_table,
)
from .relations import Interpretation, Relation


def hat(Q: Quantale, elements) -> tuple[Relation, ...]:
    """The relations {(g, q) : g <= a;q} over the carrier of Q, one for each
    a of elements, in order.

    Row q of the converse of hat(a) is {g : g <= a;q}, the lower cone of
    a;q, so the converse is the lower cones gathered at row a of Q.comp.  The
    converses of all the elements are stacked and transposed once
    (relations.transpose).  The cones are read off Q.candidate_masks, the
    pass the law checks and residuals of Q read.
    """
    cones = Q.candidate_masks.read()[1]
    converses = [rel.gather(cones, Q.comp[a]) for a in elements]
    return tuple(rel.unstack(rel.transpose(rel.stack(converses, Q.size))))


def unitalize(Q: Quantale) -> Quantale:
    """Freely adjoin a two-sided unit; the identity on quantales already unital.

    The carrier doubles to pairs (q, i) with i marking "join with the unit":
    order and joins are componentwise, the product is
    (p, i);(q, j) = (p;q v [j]p v [i]q, i&j) and the unit is (bottom, 1).
    Pair (q, i) has index i * size + q, so the order row of (q, 0) is that of
    q in both halves and the order row of (q, 1) is that of q in the upper
    half, and the joins are read off the order rows (completion.join_table).
    Row (p, i) of the product is four blocks, one per (i, j), each a whole-row
    join (completion.join_rows) of row p of Q.comp with the constant row p
    when j is set and with the identity row when i is set, shifted to the
    upper half when both are.
    """
    if Q.unital:
        return Q
    size = Q.size
    unit_bit = Q.masks[Q.top].bit_length()
    masks = tuple(Q.masks[q] | (i << unit_bit) for i in (0, 1) for q in range(size))
    labels = tuple(
        Q.labels[q] + ("+e" if i else "") for i in (0, 1) for q in range(size)
    )
    leq = tuple(row | row << size for row in Q.leq) + tuple(row << size for row in Q.leq)
    sup, identity = Q.sup, range(size)
    lower, upper = [], []
    for p, row in enumerate(Q.comp):
        with_p = join_rows(sup, row, repeat(p))
        lower.append(row + tuple(with_p))
        upper.append(tuple(join_rows(sup, row, identity))
                     + tuple(map(size.__add__, join_rows(sup, with_p, identity))))
    out = Quantale(
        labels=labels,
        masks=masks,
        leq=leq,
        comp=tuple(lower + upper),
        sup=join_table(leq),
        bottom=Q.bottom,
        top=size + Q.top,
        unit=size + Q.bottom,
    )
    check_quantale_laws(out)
    return out


@dataclass(frozen=True)
class RepresentResult:
    interpretation: Interpretation
    quantale: Quantale
    base_quantale: Quantale
    unitalized: bool
    # the order-iff condition of the plain completion's hats, which auto mode
    # decides by; None under unitalize_mode "on" and "off"
    unitalize_reason: Check | None


def represent_pipeline(
    A: FiniteResiduatedSemigroup,
    unitalize_mode: str = "auto",
) -> RepresentResult:
    """Full pipeline: completion, optional unitalization, hat map.

    unitalize_mode "auto" adjoins a unit exactly when the hats of the plain
    completion fail the order condition of check_representation, and keeps
    that condition as unitalize_reason.  The hats always preserve the order,
    since a;q is monotone in a; as every element is the join of the elements
    below it, hat(a) <= hat(b) holds exactly when a;q <= b;q for every q, so
    the condition is read off the tables by the order_reflection law, with
    the same first witness and no hat built (off Q0.candidate_masks, the
    pass the completion's law checks and residuals already read).  "on"
    always adjoins a unit (a no-op for quantales that already have one) and
    "off" never does.
    """
    if unitalize_mode not in ("on", "off", "auto"):
        raise ValueError(f"unknown unitalize mode {unitalize_mode!r}")
    Q0 = build_quantale(A)
    f = embed(A, Q0)
    reason = None
    use_unit = unitalize_mode == "on" and not Q0.unital
    if unitalize_mode == "auto":
        reason = Check("order-iff", order_reflection(Q0.leq, Q0.comp, Q0.candidate_masks))
        use_unit = not reason.passed
    Q = unitalize(Q0) if use_unit else Q0
    # unitalize lays out the (q, 0) copies first, so the embedding indices carry over
    interp = Interpretation(
        names=A.names,
        base_labels=Q.labels,
        relations=hat(Q, f),
    )
    return RepresentResult(
        interpretation=interp,
        quantale=Q,
        base_quantale=Q0,
        unitalized=use_unit,
        unitalize_reason=reason,
    )

