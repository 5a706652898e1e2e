"""Finite residuated semigroups: tables, parsing, validation, relation closures.

Elements are dense indices 0..n-1; names are surface syntax only.  The order
is stored as row bitmasks (bit j of leq[i] set iff element i <= element j),
composition and the two residuals as n x n index tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem, itemgetter, xor
from typing import NamedTuple

from . import relations as rel
from .errors import (
    QUOTE_LIMIT,
    ClosureSizeError,
    NoResidualError,
    ParseError,
    ResidualMismatchError,
    quote,
    quote_name,
)
from .relations import Interpretation, Relation

_NAME_RE = re.compile(r"[A-Za-z0-9_.]+\Z")


@dataclass(frozen=True)
class FiniteResiduatedSemigroup:
    """Ordered semigroup with residual tables.

    lres[a][c] is a\\c (largest b with a;b <= c) and rres[c][b] is c/b
    (largest a with a;b <= c).  Instances are plain table holders; nothing is
    checked at construction, so invalid structures can be built and handed to
    validate().
    """

    names: tuple[str, ...]
    leq: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]
    lres: tuple[tuple[int, ...], ...]
    rres: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def operations(self) -> tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]:
        """The signature as (condition name, index table) pairs."""
        return (
            ("composition", self.comp),
            ("left-residual", self.lres),
            ("right-residual", self.rres),
        )

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)


class Check(NamedTuple):
    """A law or condition that holds, or fails at the indices of witness."""

    name: str
    witness: tuple[int, ...] | None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def message(self, names=None) -> str:
        """'<name> fails at (<witness>)', each index named by names when given."""
        label = str if names is None else lambda i: quote_name(names[i])
        return f"{self.name} fails at ({', '.join(map(label, self.witness))})"

    def payload(self, element_names, base_labels) -> dict:
        """Status and the witness of a representation condition: elements for
        its first two indices, base points for the last two of four."""
        entry: dict = {"status": "pass" if self.passed else "fail"}
        if self.witness is not None:
            entry["witness"] = {"elements": [element_names[i] for i in self.witness[:2]]}
            if len(self.witness) == 4:
                entry["witness"]["points"] = [base_labels[i] for i in self.witness[2:]]
        return entry


@dataclass(frozen=True)
class Report:
    """Checks in a fixed order; valid exactly when every one passes."""

    conditions: tuple[Check, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.conditions if not c.passed)

    def condition(self, name: str) -> Check:
        return {c.name: c for c in self.conditions}[name]

    def payload(self, element_names, base_labels) -> dict:
        checks = {c.name: c.payload(element_names, base_labels) for c in self.conditions}
        return checks | {"all_pass": self.valid}


# ---------------------------------------------------------------------------
# table laws
#
# Each law reads order rows (bit j of leq[i] set iff i <= j) and index tables
# of any size, and returns the lexicographically first tuple of indices that
# violates it, or None when the law holds.


def reflexivity(leq: tuple[int, ...]) -> tuple[int] | None:
    for i, row in enumerate(leq):
        if not row >> i & 1:
            return (i,)
    return None


def antisymmetry(leq: tuple[int, ...]) -> tuple[int, int] | None:
    for i, row in enumerate(leq):
        for j in range(i + 1, len(leq)):
            if row >> j & 1 and leq[j] >> i & 1:
                return (i, j)
    return None


def transitivity(leq: tuple[int, ...]) -> tuple[int, int, int] | None:
    """Some i <= j <= k with i not <= k, visiting only the j above each i."""
    for i, row in enumerate(leq):
        above = row
        while above:
            low = above & -above
            j = low.bit_length() - 1
            escape = leq[j] ^ (leq[j] & row)
            if escape:
                return (i, j, (escape & -escape).bit_length() - 1)
            above ^= low
    return None


class CandidateMasks:
    """The candidate sets of both residuals of an order and a composition
    over n elements, with the lower cones, built on the first read().

    Row c of the pass holds {b : a;b <= c} at index a for every a,
    {a : a;b <= c} at n + b for every b, then the lower cone {i : i <= c}.
    The rows are read off one transposition (relations.transpose) of the
    2n + 1 relations {(b, c) : a;b <= c}, one per a, {(a, c) : a;b <= c},
    one per b, and the order itself: row c of their converses is row c of
    the pass.  infer_residuals takes each residual's maximum from them,
    residuation and order reflection decide and name their witnesses off
    them, and the distributivity of join_semigroup_laws reads them first, at
    every size, so a caller that checks several laws of one table hands each
    the same instance and pays for one pass.
    """

    __slots__ = ("leq", "comp", "_read")

    def __init__(self, leq: tuple[int, ...], comp) -> None:
        self.leq, self.comp, self._read = leq, comp, None

    def read(self) -> tuple[list, list[int]]:
        """The rows of the pass, and the lower cones: bit i of the cone of c
        set iff i <= c."""
        if self._read is None:
            leq, comp, n = self.leq, self.comp, len(self.leq)
            # row y of the stack: the up-sets of column y of comp, then those
            # of row y, then the up-set of y
            ups = rel.stack_fields([rel.gather(leq, column) + rel.gather(leq, row) + (up,)
                                    for column, row, up in zip(zip(*comp), comp, leq)],
                                   2 * n + 1, n)
            converses = rel.transpose(ups)
            rows = rel.stacked_rows(converses.rows, converses)
            self._read = rows, [row[-1] for row in rows]
        return self._read


# Each law below has one implementation.  Associativity and distributivity
# compare one whole row over the last index per step of the first two, read
# off the tables with an itemgetter over the indices of another row (with a
# single index both sides are bare items), and run the scalar loop only on a
# row that mismatches, to name the first violating index.  Residuation and
# order reflection are decided, and their first witnesses named, off the
# candidate masks (CandidateMasks) in O(n^2) steps.  join_semigroup_laws
# reads its distributivity off the same masks first, and decides its
# associativity over the join-irreducibles G (join_irreducibles) once the
# order laws, join_lub and distributivity hold: every element is then a join
# of members of G, and a product of joins is the join of the products.  The
# loop over every element runs only when that reading does not show the law
# holds, to decide it and name the first witness, so the witnesses do not
# depend on the path.  Monotonicity has one path, its scalar loop: it runs
# only on the tables that validate reads.


def associativity(comp, G=None) -> tuple[int, int, int] | None:
    """Some a, b, c of G (every element when None), first in the order of G,
    with (a;b);c != a;(b;c): row a;b of comp read at G against row a read at
    row b read at G, one step per (a, b), with every getter built first.
    Each step compares its first cell alone before the rows, so a step that
    fails there reads no row."""
    G = range(len(comp)) if G is None else G
    if not G:
        return None
    first, at_g = G[0], itemgetter(*G)
    rights = [(comp[b], itemgetter(*map(comp[b].__getitem__, G))) for b in G]
    for a in G:
        row = comp[a]
        for b, (comp_b, right) in zip(G, rights):
            comp_ab = comp[row[b]]
            if comp_ab[first] != row[comp_b[first]]:
                return (a, b, first)
            if at_g(comp_ab) != right(row):
                return next((a, b, c) for c in G if comp_ab[c] != row[comp_b[c]])
    return None


def join_irreducibles(leq: tuple[int, ...]) -> tuple[int, ...]:
    """G: the elements that are not the least upper bound of the elements
    strictly below them, ascending; in a lattice, the join-irreducibles and
    the bottom.  x is that bound exactly when the upper bounds of those
    elements, the AND of their order rows, are the elements above x, its own
    row; with none below x the AND stays all ones (-1), which no row is.
    Each order row is ANDed into the rows of the elements strictly above it,
    at most n^2 steps."""
    bounds = [-1] * len(leq)
    for y, up in enumerate(leq):
        above = up ^ (up & (1 << y))
        while above:
            low = above & -above
            bounds[low.bit_length() - 1] &= up
            above ^= low
    return tuple([x for x, (up, common) in enumerate(zip(leq, bounds)) if common != up])


def monotonicity(leq: tuple[int, ...], comp) -> tuple[int, int, int] | None:
    """Some a <= b and c with a;c not <= b;c or c;a not <= c;b."""
    n = len(leq)
    for a in range(n):
        comp_a = comp[a]
        for b in range(n):
            if not leq[a] >> b & 1:
                continue
            comp_b = comp[b]
            for c in range(n):
                if not leq[comp_a[c]] >> comp_b[c] & 1 or not leq[comp[c][a]] >> comp[c][b] & 1:
                    return (a, b, c)
    return None


def residuation(leq: tuple[int, ...], comp, lres, rres,
                masks: CandidateMasks | None = None) -> tuple[int, int, int] | None:
    """Some a, b, c where b <= a\\c, a;b <= c and a <= c/b do not all agree.

    Decided and named off the candidate masks of (leq, comp), masks or a
    pass built here.  b <= a\\c says that b lies in the cone of a\\c and
    a <= c/b that a lies in the cone of c/b, so the law holds exactly when
    every candidate set {b : a;b <= c} and {a : a;b <= c} is the lower cone
    of that residual, compared row by row.  Otherwise each set that differs
    from its cone names the least violation it holds, (a, b, c) with b the
    lowest member of the difference for a\\c, a the lowest for c/b, and the
    least of those is the first witness."""
    rows, down = (masks or CandidateMasks(leq, comp)).read()
    n = len(down)
    columns = tuple(zip(*lres))
    if all(tuple(row[:n]) == rel.gather(down, lres_at)
           and tuple(row[n:-1]) == rel.gather(down, rres_at)
           for row, lres_at, rres_at in zip(rows, columns, rres)):
        return None
    return min([(a, (m & -m).bit_length() - 1, c)
                for c, (row, lres_at) in enumerate(zip(rows, columns))
                for a, m in enumerate(map(xor, row, rel.gather(down, lres_at))) if m]
               + [((m & -m).bit_length() - 1, b, c)
                  for c, (row, rres_at) in enumerate(zip(rows, rres))
                  for b, m in enumerate(map(xor, row[n:], rel.gather(down, rres_at))) if m])


def join_lub(leq: tuple[int, ...], join) -> tuple[int, int, int] | None:
    """Some i, j, k where i v j <= k disagrees with (i <= k and j <= k).

    On a preorder this says exactly that i v j is a least upper bound.
    """
    for i, row in enumerate(leq):
        join_i = join[i]
        for j in range(len(leq)):
            mismatch = (row & leq[j]) ^ leq[join_i[j]]
            if mismatch:
                return (i, j, (mismatch & -mismatch).bit_length() - 1)
    return None


def distributivity(join, comp) -> tuple[int, int, int] | None:
    """Some a, b, c with a;(b v c) != a;b v a;c or (b v c);a != b;a v c;a:
    row a (column a) of comp read at row b of join against row a;b (b;a) of
    join read at row a (column a) of comp."""
    n = len(comp)
    columns = tuple(zip(*comp))
    join_at = [itemgetter(*row) for row in join]
    for a in range(n):
        comp_a, col_a = comp[a], columns[a]
        left_a, right_a = itemgetter(*comp_a), itemgetter(*col_a)
        for b, at_join_b in enumerate(join_at):
            if (at_join_b(comp_a) == left_a(join[comp_a[b]])
                    and at_join_b(col_a) == right_a(join[col_a[b]])):
                continue
            join_b = join[b]
            for c in range(n):
                bc = join_b[c]
                if (
                    comp_a[bc] != join[comp_a[b]][comp_a[c]]
                    or comp[bc][a] != join[comp[b][a]][comp[c][a]]
                ):
                    return (a, b, c)
    return None


def order_reflection(leq: tuple[int, ...], comp,
                     masks: CandidateMasks | None = None) -> tuple[int, int] | None:
    """Some a not <= b with a;q <= b;q for every q.

    In a quantale join-generated by G this is exactly where the relations
    {(g, q) : g in G, g <= a;q} fail to reflect the order.

    Decided and named off the candidate masks of (leq, comp), masks or a
    pass built here: the a with a;q <= b;q for every q are the AND over q of
    the candidate sets of (b;q)/q, so the a of a witness (a, b) are that AND
    less the lower cone of b.  The law holds exactly when that is empty for
    every b, and the first witness is the least a, then b.
    """
    rows, down = (masks or CandidateMasks(leq, comp)).read()
    right = range(len(leq), 2 * len(leq))
    meets = (reduce(and_, map(getitem, rel.gather(rows, comp_b), right)) for comp_b in comp)
    escapes = (m ^ (m & cone) for m, cone in zip(meets, down))
    return min((((m & -m).bit_length() - 1, b) for b, m in enumerate(escapes) if m),
               default=None)


def _max_of(candidates: int, down: tuple[int, ...]) -> int | None:
    """Index of an element of the candidate mask above all others, if any."""
    m = candidates
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if candidates & down[i] == candidates:
            return i
        m ^= low
    return None


def infer_residuals(
    leq: tuple[int, ...], comp: tuple[tuple[int, ...], ...], names=None,
    masks: CandidateMasks | None = None,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Compute both residual tables forced by the order and composition.

    In a finite poset a\\c must be the maximum of {b : a;b <= c} and c/b the
    maximum of {a : a;b <= c}; raises NoResidualError, naming elements by
    names when given, at the first missing one (every a\\c before every c/b)
    when a candidate set is empty or has no maximum.  Every candidate set and
    lower cone is read off the candidate masks of (leq, comp), masks or a
    pass built here (CandidateMasks), at every size, and the maximum of each
    distinct candidate set is searched once.  Residuation, order
    reflection and the distributivity of join_semigroup_laws read the same
    pass, so a caller that hands it to them as well builds it once.
    """
    cands, down = (masks or CandidateMasks(leq, comp)).read()
    n = len(leq)
    found: dict[int, int | None] = {}  # candidate mask -> its maximum, or None

    def maxima(candidates) -> tuple[int | None, ...]:
        return tuple([found[m] if m in found else found.setdefault(m, _max_of(m, down))
                      for m in candidates])

    lres = tuple(zip(*[maxima(row[:n]) for row in cands]))
    for a, row in enumerate(lres):
        if None in row:
            c = row.index(None)
            raise NoResidualError(a, c, "left", rel.set_lanes(cands[c][a]), names)
    rres = tuple(maxima(row[n:-1]) for row in cands)
    for c, row in enumerate(rres):
        if None in row:
            b = row.index(None)
            raise NoResidualError(c, b, "right", rel.set_lanes(cands[c][n + b]), names)
    return lres, rres


def order_checks(leq: tuple[int, ...]) -> tuple[Check, ...]:
    """The partial-order laws of the order rows."""
    return (
        Check("reflexivity", reflexivity(leq)),
        Check("antisymmetry", antisymmetry(leq)),
        Check("transitivity", transitivity(leq)),
    )


def join_semigroup_laws(leq: tuple[int, ...], join, comp,
                        masks: CandidateMasks | None = None) -> Report:
    """The laws of a join-semilattice-ordered semigroup (join is the least upper
    bound of a partial order, composition is associative and distributes over
    join), listed once for the completion's quantales and point-algebra reducts.

    Distributivity holds without its row loop when the order is reflexive
    and antisymmetric, join_lub holds and every candidate set of the masks
    of (leq, comp), masks or a pass built here, is a principal lower cone.
    Proof: when {b : a;b <= c} is the cone of r, a;(b v b') <= c iff
    b v b' <= r iff b <= r and b' <= r (join_lub) iff a;b <= c and a;b' <= c
    iff a;b v a;b' <= c (join_lub).  So a;(b v b') and a;b v a;b' lie below
    the same elements; each lies below itself, so below the other, and they
    are equal by antisymmetry.  (b v b');a is the mirror case, with
    {a : a;b <= c}.  The row loop (distributivity) decides otherwise, and
    names the witness.

    Associativity holds exactly when, given the order laws, join_lub and
    distributivity, it holds over G = join_irreducibles(leq), that is when
    associativity(comp, G) finds no witness.  Proof: first, every x is the join
    of the non-empty set G(x) of the members of G below x, by induction on
    the size of the lower cone of x.  If x is in G, G(x) holds x, and x is its
    largest member.  Otherwise x is the least upper bound of the non-empty set
    S of elements strictly below x, each of which has a smaller cone
    (transitivity, antisymmetry), so is the join of its own G(s), a subset of
    G(x) (transitivity).  An upper bound of G(x) is then one of every such
    G(s), so of every s, so lies above x; and x lies above G(x).  So x is the
    least upper bound of G(x), and the iterated binary joins of a non-empty
    set are its least upper bound (join_lub).  Second, distributivity over
    binary joins on both sides gives it over non-empty finite joins by
    induction.  So with x, y and z the joins of G(x), G(y) and G(z),
    (x;y);z and x;(y;z) are the joins of (a;b);c and of a;(b;c) over a in
    G(x), b in G(y) and c in G(z), which are the same elements.  Associativity
    over every element decides when a precondition fails, and names the
    first witness when the check over G fails.
    """
    reflexive, antisymmetric, transitive = order_checks(leq)
    lub = Check("join_lub", join_lub(leq, join))
    distributes = (reflexive.passed and antisymmetric.passed and lub.passed
                   and _principal_candidates(masks or CandidateMasks(leq, comp)))
    distributivity_witness = None if distributes else distributivity(join, comp)
    preconditions = (reflexive.passed and antisymmetric.passed and transitive.passed
                     and lub.passed and distributivity_witness is None)
    associative = preconditions and associativity(comp, join_irreducibles(leq)) is None
    return Report((
        reflexive, antisymmetric, transitive, lub,
        Check("associativity", None if associative else associativity(comp)),
        Check("distributivity", distributivity_witness),
    ))


def _principal_candidates(masks: CandidateMasks) -> bool:
    """Whether every candidate set of masks is the lower cone of an element."""
    rows, down = masks.read()
    cones = set(down)
    return all(cones.issuperset(row[:-1]) for row in rows)


def validate(A: FiniteResiduatedSemigroup) -> Report:
    """Check all axioms, reporting the first witness per failed axiom.

    Total: never raises, works on arbitrary tables.
    """
    return Report(order_checks(A.leq) + (
        Check("associativity", associativity(A.comp)),
        Check("monotonicity", monotonicity(A.leq, A.comp)),
        Check("residuation", residuation(A.leq, A.comp, A.lres, A.rres)),
    ))


# ---------------------------------------------------------------------------
# text format


def parse_algebra(text: str) -> FiniteResiduatedSemigroup:
    """Parse the line-oriented algebra format.

    Blocks: ``elements:``, ``leq:`` (entries x<=y, reflexive pairs implicit,
    no transitive closing), ``comp:`` (x;y=z, all n^2 entries required) and
    optional ``lres:`` / ``rres:`` blocks which are cross-checked against the
    residuals forced by the order and composition.
    """
    blocks: dict[str, list[tuple[str, int, int]]] = {
        "elements": [], "leq": [], "comp": [], "lres": [], "rres": []
    }
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'block: entries...'", lineno, 1)
        key, rest = line.split(":", 1)
        key = key.strip()
        if key not in blocks:
            raise ParseError(f"unknown block {quote(key)}", lineno, 1)
        offset = line.index(":") + 1
        pos = 0
        for token in rest.split():
            pos = rest.index(token, pos)
            blocks[key].append((token, lineno, offset + pos + 1))
            pos += len(token)

    names: list[str] = []
    for token, lineno, col in blocks["elements"]:
        if not _NAME_RE.match(token):
            raise ParseError(f"invalid element name {quote(token)}", lineno, col)
        if token not in names:
            names.append(token)
    if not names:
        raise ParseError("no elements declared")
    n = len(names)
    index = {name: i for i, name in enumerate(names)}

    def resolve(name: str, lineno: int, col: int) -> int:
        if name not in index:
            raise ParseError(f"unknown element name {quote(name)}", lineno, col)
        return index[name]

    leq = [1 << i for i in range(n)]
    for token, lineno, col in blocks["leq"]:
        if "<=" not in token:
            raise ParseError(f"expected x<=y, got {quote(token)}", lineno, col)
        lhs, rhs = token.split("<=", 1)
        i = resolve(lhs, lineno, col)
        j = resolve(rhs, lineno, col)
        leq[i] |= 1 << j

    def read_table(block: str, sep: str) -> list[list[int | None]]:
        table: list[list[int | None]] = [[None] * n for _ in range(n)]
        for token, lineno, col in blocks[block]:
            lhs, _, value = token.rpartition("=")
            left, found, right = lhs.partition(sep)
            if not found:
                raise ParseError(f"expected x{sep}y=z, got {quote(token)}", lineno, col)
            i = resolve(left, lineno, col)
            j = resolve(right, lineno, col)
            k = resolve(value, lineno, col)
            if table[i][j] is not None:
                raise ParseError(
                    f"duplicate {block} entry for {quote(left + sep + right)}", lineno, col
                )
            table[i][j] = k
        return table

    comp_partial = read_table("comp", ";")
    for i in range(n):
        for j in range(n):
            if comp_partial[i][j] is None:
                raise ParseError(f"missing comp entry {quote(names[i] + ';' + names[j])}")
    comp = tuple(tuple(row) for row in comp_partial)  # type: ignore[arg-type]

    leq_t = tuple(leq)
    inferred_lres, inferred_rres = infer_residuals(leq_t, comp, names)

    tables = {"lres": inferred_lres, "rres": inferred_rres}
    mismatch = None
    for block, sep in (("lres", "\\"), ("rres", "/")):
        if not blocks[block]:
            continue
        given = read_table(block, sep)
        for i in range(n):
            for j in range(n):
                if given[i][j] is None:
                    raise ParseError(f"missing {block} entry {quote(names[i] + sep + names[j])}")
        given_t = tuple(tuple(row) for row in given)  # type: ignore[arg-type]
        if given_t != tables[block] and mismatch is None:
            i, j = next(
                (i, j)
                for i in range(n)
                for j in range(n)
                if given_t[i][j] != tables[block][i][j]
            )
            mismatch = (
                f"{block} entry {quote_name(names[i])}{sep}{quote_name(names[j])}="
                f"{quote_name(names[given_t[i][j]])} disagrees with the inferred residual "
                f"{quote_name(names[tables[block][i][j]])}"
            )
        tables[block] = given_t

    A = FiniteResiduatedSemigroup(
        names=tuple(names), leq=leq_t, comp=comp, lres=tables["lres"], rres=tables["rres"]
    )
    if mismatch is not None:
        # single source of truth: the declared tables are not the residuals
        # forced by the order and composition, so the file does not denote a
        # residuated semigroup; the as-given structure rides on the error so
        # callers can report the law violation itself
        raise ResidualMismatchError(mismatch, A)
    return A


# ---------------------------------------------------------------------------
# concrete (representable-by-construction) algebras


class RelationClosure(tuple):
    """The members of a closed relation family, ascending, with their tables.

    A tuple of relations that also carries the member index of every
    operation: comp[i][j], lres[i][j] and rres[i][j] index self[i] ; self[j],
    self[i] \\ self[j] and self[i] / self[j]; and their order by inclusion:
    bit j of leq[i] is set iff self[i] lies inside self[j].
    """

    leq: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]
    lres: tuple[tuple[int, ...], ...]
    rres: tuple[tuple[int, ...], ...]


def close_relation_family(
    generators, base_size: int, max_relations: int = 512
) -> RelationClosure:
    """Close a family of relations under composition and both residuals.

    Every operation is computed relative to the full square over the base, so
    the closure is a residuated semigroup of relations by construction.  An
    empty generator family is seeded with the empty relation (the union of no
    generators), whose residuals then populate the closure.  The closure runs
    in rounds over stacks of relation codes (``relations.stack_codes``): the
    run of a round is the members found in the round before it (every member
    in the first), and each operation is evaluated at the run against all
    members and at the members before the run against the run
    (``relations.Operation.codes``), so each pair of members is evaluated in
    the round after the later of them is found.  The codes not seen make the
    next run.  Once a round finds nothing new, the members are sorted and one
    evaluation of each operation at all members against all gives its table;
    the order by inclusion is read off the same stack of the sorted members.
    A generator of the wrong length, or with a row that is not an int below
    2 ** base_size, raises ValueError.
    """
    n = base_size
    members: list[Relation] = []
    codes: list[int] = []
    seen: set[int] = set()

    def add(new: set[int]) -> None:
        """Make the codes of new, none of them seen, members."""
        if len(members) + len(new) > max_relations:
            raise ClosureSizeError(
                f"relation closure exceeded {max_relations} members at base size {base_size}"
            )
        seen.update(new)
        codes.extend(new)
        members.extend([rel.decode_relation(code, n) for code in new])

    given = set()
    for g in generators:
        g = tuple(g)
        if len(g) != base_size:
            raise ValueError("generator does not match the base size")
        if not all(isinstance(row, int) and 0 <= row < 1 << n for row in g):
            shown = str(g) if len(str(g)) <= QUOTE_LIMIT else quote(str(g))
            raise ValueError(f"generator {shown} has a row outside the base of size {base_size}")
        given.add(rel.relation_code(g))
    add(given or {0})

    ops = [rel.OPERATIONS[name] for name in ("composition", "left-residual", "right-residual")]
    start = 0  # the first member of the run
    while start < len(members):
        # both stacks carry their columns, for the left residual's keys and
        # the right residual's rows
        everything = rel.with_columns(rel.stack_codes(codes, n))
        run = rel.with_columns(rel.stack_codes(codes[start:], n))
        found: set[int] = set()
        for op in ops:
            keyed = op.keys(members, everything)
            found.update(rel.unpack_codes(op.codes(keyed[start:], everything), len(codes), n))
            found.update(rel.unpack_codes(op.codes(keyed[:start], run), len(codes) - start, n))
        start = len(members)
        add(found - seen)

    order = sorted(range(len(members)), key=members.__getitem__)
    closure = RelationClosure(rel.gather(members, order))
    ordered = rel.gather(codes, order)
    count = len(closure)
    rank = dict(zip(ordered, range(count)))
    everything = rel.with_columns(rel.stack_codes(ordered, n))
    closure.leq = rel.inclusion_order(closure, everything)
    tables = []
    for op in ops:
        entries = rel.unpack_codes(op.codes(op.keys(closure, everything), everything), count, n)
        tables.append(tuple(rel.gather(rank, entries[a:a + count])
                            for a in range(0, count * count, count)))
    closure.comp, closure.lres, closure.rres = tables
    return closure


def algebra_of_relations(
    family: RelationClosure, names: tuple[str, ...] | None = None
) -> FiniteResiduatedSemigroup:
    """Abstract tables and order of a closed family of relations, read off its
    closure."""
    if names is None:
        names = tuple(f"r{i}" for i in range(len(family)))
    return FiniteResiduatedSemigroup(names=names, leq=family.leq,
                                     comp=family.comp, lres=family.lres, rres=family.rres)


def generate_concrete(
    base_size: int, generators, max_relations: int = 512
) -> tuple[FiniteResiduatedSemigroup, Interpretation]:
    """The algebra of the relations the generators close to over the base,
    representable by construction, and its identity interpretation."""
    if base_size < 1:
        raise ValueError("base must be nonempty")
    family = close_relation_family(generators, base_size, max_relations)
    A = algebra_of_relations(family)
    return A, Interpretation(A.names, tuple(map(str, range(base_size))), family)
