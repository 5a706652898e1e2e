"""Relational representation of a finite quantale and the induced interpretation.

Every quantale element a becomes the relation of pairs (g, q) with g a
generator and g <= a;q, over the quantale carrier as a base.  Composing the
lower-cone embedding with this hat map interprets the original algebra by
relations over a finite base.  Without a unit the hat map can conflate
distinct elements, so an optional unitalization step freely adjoins one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import relations as rel
from . import verifier
from .algebra import FiniteResiduatedSemigroup, inclusion_order
from .completion import Quantale, build_quantale, check_quantale_laws, embed
from .errors import ParseError
from .relations import Interpretation, Relation

GENERATOR_MODES = ("all", "join-irreducible")


@dataclass(frozen=True)
class GeneratorSet:
    """Chosen generators of a quantale, with the join-generation property checked."""

    indices: tuple[int, ...]
    mode: str


def generators(Q: Quantale, mode: str = "all") -> GeneratorSet:
    if mode not in GENERATOR_MODES:
        raise ValueError(f"unknown generator mode {mode!r}")
    if mode == "all":
        chosen = tuple(range(Q.size))
    else:
        chosen = tuple(
            q
            for q in range(Q.size)
            if Q.sup_of(p for p in range(Q.size) if p != q and Q.le(p, q)) != q
        )
    for q in range(Q.size):
        if Q.sup_of(g for g in chosen if Q.le(g, q)) != q:
            raise AssertionError(f"generator set does not join-generate element {q}")
    return GeneratorSet(indices=chosen, mode=mode)


def hat(Q: Quantale, G: GeneratorSet, a: int) -> Relation:
    """The relation {(g, q) : g in G, g <= a;q} over the carrier of Q."""
    rows = [0] * Q.size
    comp_row = Q.comp[a]
    for g in G.indices:
        acc = 0
        for q in range(Q.size):
            if Q.le(g, comp_row[q]):
                acc |= 1 << q
        rows[g] = acc
    return tuple(rows)


def unitalize(Q: Quantale) -> Quantale:
    """Freely adjoin a two-sided unit; the identity on quantales already unital.

    The carrier doubles to pairs (q, i) with i marking "join with the unit":
    order and joins are componentwise, the product is
    (p, i);(q, j) = (p;q v [j]p v [i]q, i&j) and the unit is (bottom, 1).
    """
    if Q.unital:
        return Q
    size = Q.size
    unit_bit = Q.masks[Q.top].bit_length()
    masks = tuple(Q.masks[q] | (i << unit_bit) for i in (0, 1) for q in range(size))
    labels = tuple(
        Q.labels[q] + ("+e" if i else "") for i in (0, 1) for q in range(size)
    )
    total = 2 * size

    def comp_pair(p: int, i: int, q: int, j: int) -> int:
        base = Q.comp[p][q]
        if j:
            base = Q.sup[base][p]
        if i:
            base = Q.sup[base][q]
        return (i & j) * size + base

    comp = tuple(
        tuple(comp_pair(x % size, x // size, y % size, y // size) for y in range(total))
        for x in range(total)
    )
    sup = tuple(
        tuple(
            ((x // size) | (y // size)) * size + Q.sup[x % size][y % size]
            for y in range(total)
        )
        for x in range(total)
    )
    out = Quantale(
        labels=labels,
        masks=masks,
        leq=inclusion_order(masks),
        comp=comp,
        sup=sup,
        bottom=Q.bottom,
        top=size + Q.top,
        unital=True,
        unit=size + Q.bottom,
    )
    check_quantale_laws(out)
    return out


@dataclass(frozen=True)
class RepresentResult:
    interpretation: Interpretation
    quantale: Quantale
    base_quantale: Quantale
    generator_set: GeneratorSet
    unitalized: bool
    embedding: tuple[int, ...]


def represent_pipeline(
    A: FiniteResiduatedSemigroup,
    generators_mode: str = "all",
    unitalize_mode: str = "auto",
) -> RepresentResult:
    """Full pipeline: completion, optional unitalization, generators, hat map.

    unitalize_mode "auto" adjoins a unit exactly when the hats of the plain
    completion fail the order condition of check_representation (they always
    preserve the order, since a;q is monotone in a, so this is a failure of
    order reflection); "on" always adjoins one (a no-op for quantales that
    already have a unit) and "off" never does.
    """
    if unitalize_mode not in ("on", "off", "auto"):
        raise ValueError(f"unknown unitalize mode {unitalize_mode!r}")
    Q0 = build_quantale(A)
    f = embed(A, Q0)
    if unitalize_mode == "on":
        use_unit = not Q0.unital
    elif unitalize_mode == "auto":
        G0 = generators(Q0, generators_mode)
        hats = Interpretation(
            algebra=Q0,
            base_labels=Q0.labels,
            relations=tuple(hat(Q0, G0, a) for a in range(Q0.size)),
        )
        report = verifier.check_representation(Q0, hats)
        use_unit = not report.condition("order-iff").passed
    else:
        use_unit = False
    Q = unitalize(Q0) if use_unit else Q0
    # unitalize lays out the (q, 0) copies first, so the embedding indices carry over
    G = generators(Q, generators_mode)
    interp = Interpretation(
        algebra=A,
        base_labels=Q.labels,
        relations=tuple(hat(Q, G, f[a]) for a in range(A.n)),
    )
    return RepresentResult(
        interpretation=interp,
        quantale=Q,
        base_quantale=Q0,
        generator_set=G,
        unitalized=use_unit,
        embedding=f,
    )


def represent(
    A: FiniteResiduatedSemigroup,
    generators_mode: str = "all",
    unitalize_mode: str = "auto",
) -> Interpretation:
    return represent_pipeline(A, generators_mode, unitalize_mode).interpretation


# ---------------------------------------------------------------------------
# representation dump (the input contract of the verifier CLI)


def interpretation_payload(I: Interpretation) -> dict:
    names = list(getattr(I.algebra, "names"))
    return {
        "base": list(I.base_labels),
        "elements": names,
        "relations": {
            name: [list(p) for p in rel.relation_pairs(I.relations[i])]
            for i, name in enumerate(names)
        },
    }


def format_interpretation_lines(payload: dict) -> list[str]:
    lines = ["base: " + " ".join(payload["base"])]
    for name in payload["elements"]:
        pairs = payload["relations"][name]
        lines.append(f"rel {name}:" + "".join(f" ({x},{y})" for x, y in pairs))
    return lines


def format_interpretation(I: Interpretation) -> str:
    return "\n".join(format_interpretation_lines(interpretation_payload(I))) + "\n"


def _is_pair(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p)


def parse_interpretation(text: str, A) -> Interpretation:
    """Read a representation dump (text or its JSON mirror) and bind its
    relations to A's elements."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        if not isinstance(payload, dict) or not isinstance(payload.get("base"), list):
            raise ParseError("dump field 'base' must be a list of point labels")
        if not isinstance(payload.get("relations"), dict):
            raise ParseError("dump field 'relations' must be an object")
        base = tuple(str(x) for x in payload["base"])
        named = payload["relations"]
        for name, pairs in named.items():
            if not isinstance(pairs, list) or not all(_is_pair(p) for p in pairs):
                raise ParseError(f"relation {name!r} must be a list of [x, y] pairs")
    else:
        base = ()
        named = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("base:"):
                base = tuple(line[len("base:"):].split())
            elif line.startswith("rel "):
                head, _, rest = line.partition(":")
                name = head[len("rel "):].strip()
                if name in named:
                    raise ParseError(f"second relation for element {name!r}", lineno)
                pairs = []
                for token in rest.split():
                    if not (token.startswith("(") and token.endswith(")")):
                        raise ParseError(f"expected (x,y), got {token!r}", lineno)
                    x, _, y = token[1:-1].partition(",")
                    pairs.append([int(x), int(y)])
                named[name] = pairs
            else:
                raise ParseError(f"unexpected line {line!r}", lineno)
        if not base:
            raise ParseError("missing base line")
    relations = {name: rel.relation_from_pairs(len(base), pairs) for name, pairs in named.items()}
    for name in A.names:
        if name not in relations:
            raise ParseError(f"dump has no relation for element {name!r}")
    return Interpretation(
        algebra=A, base_labels=base, relations=tuple(relations[name] for name in A.names)
    )
