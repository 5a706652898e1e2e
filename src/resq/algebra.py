"""Finite residuated semigroups: tables, parsing, validation, enumeration.

Elements are dense indices 0..n-1; names are surface syntax only.  The order
is stored as row bitmasks (bit j of leq[i] set iff element i <= element j),
composition and the two residuals as n x n index tables.
"""

from __future__ import annotations

import itertools
import random
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache

from . import relations as rel
from .errors import (
    ClosureSizeError,
    NoResidualError,
    ParseError,
    ResidualMismatchError,
    ResourceLimitError,
)
from .relations import Interpretation, Relation

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")

ENUMERATION_CAP = 3


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

    def index_of(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[tuple[str, tuple[int, ...]], ...]

    def failed_axioms(self) -> tuple[str, ...]:
        return tuple(axiom for axiom, _ in self.failures)


def down_masks(leq: tuple[int, ...]) -> tuple[int, ...]:
    """Column masks of the order: bit i of down[j] set iff i <= j."""
    n = len(leq)
    cols = [0] * n
    for i in range(n):
        row = leq[i]
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return tuple(cols)


def inclusion_order(masks) -> tuple[int, ...]:
    """Order rows of sets given as bitmasks: bit j of row i iff masks[i] <= masks[j]."""
    return tuple(sum(1 << j for j, y in enumerate(masks) if not x & ~y) for x in masks)


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
    """Some i <= j <= k with i not <= k."""
    for i, row in enumerate(leq):
        for j in range(len(leq)):
            if row >> j & 1:
                escape = leq[j] & ~row
                if escape:
                    return (i, j, (escape & -escape).bit_length() - 1)
    return None


def associativity(comp) -> tuple[int, int, int] | None:
    n = len(comp)
    for a in range(n):
        row = comp[a]
        for b in range(n):
            ab = comp[row[b]]
            comp_b = comp[b]
            for c in range(n):
                if ab[c] != row[comp_b[c]]:
                    return (a, b, c)
    return None


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


def residuation(leq: tuple[int, ...], comp, lres, rres) -> tuple[int, int, int] | None:
    """Some a, b, c where b <= a\\c, a;b <= c and a <= c/b do not all agree."""
    n = len(leq)
    for a in range(n):
        comp_a = comp[a]
        lres_a = lres[a]
        row_a = leq[a]
        for b in range(n):
            row_ab = leq[comp_a[b]]
            row_b = leq[b]
            for c in range(n):
                below = row_ab >> c & 1
                if row_b >> lres_a[c] & 1 != below or row_a >> rres[c][b] & 1 != below:
                    return (a, b, c)
    return None


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
    """Some a, b, c with a;(b v c) != a;b v a;c or (b v c);a != b;a v c;a."""
    n = len(comp)
    for a in range(n):
        comp_a = comp[a]
        for b in range(n):
            join_b = join[b]
            for c in range(n):
                bc = join_b[c]
                if (
                    comp_a[bc] != join[comp_a[b]][comp_a[c]]
                    or comp[bc][a] != join[comp[b][a]][comp[c][a]]
                ):
                    return (a, b, c)
    return None


def _max_of(candidates: int, down: tuple[int, ...]) -> int | None:
    """Index of an element of the candidate mask above all others, if any."""
    m = candidates
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if candidates & ~down[i] == 0:
            return i
        m ^= low
    return None


def infer_residuals(
    leq: tuple[int, ...], comp: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Compute both residual tables forced by the order and composition.

    In a finite poset a\\c must be the maximum of {b : a;b <= c} and c/b the
    maximum of {a : a;b <= c}; raises NoResidualError when a candidate set is
    empty or has no maximum.
    """
    n = len(leq)
    down = down_masks(leq)
    lres = []
    for a in range(n):
        row = []
        for c in range(n):
            cand = 0
            for b in range(n):
                if leq[comp[a][b]] >> c & 1:
                    cand |= 1 << b
            m = _max_of(cand, down)
            if m is None:
                raise NoResidualError(a, c, "left", _mask_to_set(cand))
            row.append(m)
        lres.append(tuple(row))
    rres = []
    for c in range(n):
        row = []
        for b in range(n):
            cand = 0
            for a in range(n):
                if leq[comp[a][b]] >> c & 1:
                    cand |= 1 << a
            m = _max_of(cand, down)
            if m is None:
                raise NoResidualError(c, b, "right", _mask_to_set(cand))
            row.append(m)
        rres.append(tuple(row))
    return tuple(lres), tuple(rres)


def _mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def validate(A: FiniteResiduatedSemigroup) -> ValidationReport:
    """Check all axioms, reporting the first witness per failed axiom.

    Total: never raises, works on arbitrary tables.
    """
    laws = (
        ("reflexivity", reflexivity(A.leq)),
        ("antisymmetry", antisymmetry(A.leq)),
        ("transitivity", transitivity(A.leq)),
        ("associativity", associativity(A.comp)),
        ("monotonicity", monotonicity(A.leq, A.comp)),
        ("residuation", residuation(A.leq, A.comp, A.lres, A.rres)),
    )
    failures = tuple((axiom, witness) for axiom, witness in laws if witness is not None)
    return ValidationReport(valid=not failures, failures=failures)


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
            raise ParseError(f"unknown block {key!r}", lineno, 1)
        offset = line.index(":") + 1
        col = offset
        pos = 0
        for token in rest.split():
            pos = rest.index(token, pos)
            blocks[key].append((token, lineno, offset + pos + 1))
            pos += len(token)

    names: list[str] = []
    for token, lineno, col in blocks["elements"]:
        if not _NAME_RE.match(token):
            raise ParseError(f"invalid element name {token!r}", lineno, col)
        if token not in names:
            names.append(token)
    if not names:
        raise ParseError("no elements declared")
    n = len(names)
    index = {name: i for i, name in enumerate(names)}

    def resolve(name: str, lineno: int, col: int) -> int:
        if name not in index:
            raise ParseError(f"unknown element name {name!r}", lineno, col)
        return index[name]

    leq = [1 << i for i in range(n)]
    for token, lineno, col in blocks["leq"]:
        if "<=" not in token:
            raise ParseError(f"expected x<=y, got {token!r}", lineno, col)
        lhs, rhs = token.split("<=", 1)
        i = resolve(lhs, lineno, col)
        j = resolve(rhs, lineno, col)
        leq[i] |= 1 << j

    def read_table(block: str, sep: str) -> list[list[int | None]]:
        table: list[list[int | None]] = [[None] * n for _ in range(n)]
        for token, lineno, col in blocks[block]:
            if sep not in token or "=" not in token:
                raise ParseError(f"expected x{sep}y=z, got {token!r}", lineno, col)
            lhs, value = token.rsplit("=", 1)
            left, right = lhs.split(sep, 1)
            i = resolve(left, lineno, col)
            j = resolve(right, lineno, col)
            k = resolve(value, lineno, col)
            if table[i][j] is not None:
                raise ParseError(
                    f"duplicate {block} entry for {left}{sep}{right}", lineno, col
                )
            table[i][j] = k
        return table

    comp_partial = read_table("comp", ";")
    for i in range(n):
        for j in range(n):
            if comp_partial[i][j] is None:
                raise ParseError(f"missing comp entry {names[i]};{names[j]}")
    comp = tuple(tuple(row) for row in comp_partial)  # type: ignore[arg-type]

    leq_t = tuple(leq)
    inferred_lres, inferred_rres = infer_residuals(leq_t, comp)

    tables = {"lres": inferred_lres, "rres": inferred_rres}
    mismatch = None
    for block, sep in (("lres", "\\"), ("rres", "/")):
        if not blocks[block]:
            continue
        given = read_table(block, sep)
        for i in range(n):
            for j in range(n):
                if given[i][j] is None:
                    raise ParseError(f"missing {block} entry {names[i]}{sep}{names[j]}")
        given_t = tuple(tuple(row) for row in given)  # type: ignore[arg-type]
        if given_t != tables[block] and mismatch is None:
            i, j = next(
                (i, j)
                for i in range(n)
                for j in range(n)
                if given_t[i][j] != tables[block][i][j]
            )
            mismatch = (
                f"{block} entry {names[i]}{sep}{names[j]}={names[given_t[i][j]]} "
                f"disagrees with the inferred residual {names[tables[block][i][j]]}"
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


def serialize(A: FiniteResiduatedSemigroup) -> str:
    """Canonical text form: blocks in fixed order, entries sorted by name."""
    lines = ["elements: " + " ".join(A.names)]
    pairs = sorted(
        (A.names[i], A.names[j])
        for i in range(A.n)
        for j in range(A.n)
        if i != j and A.le(i, j)
    )
    lines.append("leq:" + "".join(f" {x}<={y}" for x, y in pairs))

    def table_line(label: str, sep: str, table) -> str:
        entries = sorted(
            (A.names[i], A.names[j], A.names[table[i][j]])
            for i in range(A.n)
            for j in range(A.n)
        )
        return f"{label}:" + "".join(f" {x}{sep}{y}={z}" for x, y, z in entries)

    lines.append(table_line("comp", ";", A.comp))
    lines.append(table_line("lres", "\\", A.lres))
    lines.append(table_line("rres", "/", A.rres))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _partial_orders(n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((0, 1), repeat=len(off_diagonal)):
        rows = [1 << i for i in range(n)]
        for (i, j), bit in zip(off_diagonal, bits):
            if bit:
                rows[i] |= 1 << j
        if antisymmetry(rows) is None and transitivity(rows) is None:
            out.append(tuple(rows))
    return tuple(out)


@lru_cache(maxsize=None)
def _associative_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        comp = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if associativity(comp) is None:
            out.append(comp)
    return tuple(out)


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


def enumerate_algebras(n: int, cap: int = ENUMERATION_CAP, up_to_iso: bool = False):
    """Yield every residuated semigroup on n labeled elements exactly once.

    Runs over all partial orders and all associative monotone composition
    tables, keeping those whose residuals exist.  With up_to_iso=True a
    canonical-form post-filter drops isomorphic duplicates.
    """
    if n < 1:
        raise ValueError("carrier must be nonempty")
    if n > cap:
        raise ResourceLimitError(cap, f"enumeration of size {n} exceeds the cap")
    names = default_names(n)
    seen: set[tuple] = set()
    for leq in _partial_orders(n):
        for comp in _associative_tables(n):
            if monotonicity(leq, comp) is not None:
                continue
            try:
                lres, rres = infer_residuals(leq, comp)
            except NoResidualError:
                continue
            A = FiniteResiduatedSemigroup(names=names, leq=leq, comp=comp, lres=lres, rres=rres)
            if up_to_iso:
                key = canonical_key(A)
                if key in seen:
                    continue
                seen.add(key)
            yield A


def canonical_key(A: FiniteResiduatedSemigroup) -> tuple:
    """Isomorphism-invariant key: minimal relabeling of all four tables."""
    n = A.n
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        leq_bits = tuple(
            1 if A.le(perm[i], perm[j]) else 0 for i in range(n) for j in range(n)
        )
        comp_bits = tuple(inv[A.comp[perm[i]][perm[j]]] for i in range(n) for j in range(n))
        lres_bits = tuple(inv[A.lres[perm[i]][perm[j]]] for i in range(n) for j in range(n))
        rres_bits = tuple(inv[A.rres[perm[i]][perm[j]]] for i in range(n) for j in range(n))
        key = (leq_bits, comp_bits, lres_bits, rres_bits)
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# concrete (representable-by-construction) algebras


class RelationClosure(tuple):
    """The members of a closed relation family, ascending, with their tables.

    A tuple of relations that also carries the member index of every
    operation: comp[i][j], lres[i][j] and rres[i][j] index self[i] ; self[j],
    self[i] \\ self[j] and self[i] / self[j].
    """

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
    generators), whose residuals then populate the closure.  Each op(r, s) is
    computed once and kept in the returned closure's tables.
    """
    members: list[Relation] = []
    index: dict[Relation, int] = {}
    known = index.get

    def add(t: Relation) -> int:
        i = index[t] = len(members)
        members.append(t)
        if i == max_relations:
            raise ClosureSizeError(
                f"relation closure exceeded {max_relations} members at base size {base_size}"
            )
        return i

    for g in generators:
        g = tuple(g)
        if len(g) != base_size:
            raise ValueError("generator does not match the base size")
        if g not in index:
            add(g)
    if not members:
        add(rel.empty_relation(base_size))

    # Members are numbered in order of discovery, and member i is combined
    # with members 0..i in both orders, so every ordered pair is computed
    # once.  rows[op][j] lists the indices of op(members[j], members[i]) for
    # i = 0, 1, ...; a row grows by one entry each time a later member is
    # combined with it.
    ops = (rel.rel_compose, rel.rel_lres, rel.rel_rres)
    rows: tuple[list, ...] = ([], [], [])
    for r in members:  # members grows while the loop runs
        for op, table in zip(ops, rows):
            row = array("I")
            # table holds the rows of the members before r
            for s, earlier in zip(members, table):
                t = op(r, s)
                k = known(t)
                row.append(add(t) if k is None else k)
                t = op(s, r)
                k = known(t)
                earlier.append(add(t) if k is None else k)
            t = op(r, r)
            k = known(t)
            row.append(add(t) if k is None else k)
            table.append(row)

    order = sorted(range(len(members)), key=members.__getitem__)
    rank = [0] * len(order)
    for new, old in enumerate(order):
        rank[old] = new
    closure = RelationClosure(members[old] for old in order)
    tables = []
    for table in rows:
        remapped = []
        for old in order:
            row = table[old]
            remapped.append(tuple(map(rank.__getitem__, map(row.__getitem__, order))))
            table[old] = None
        tables.append(tuple(remapped))
    closure.comp, closure.lres, closure.rres = tables
    return closure


def algebra_of_relations(
    family: RelationClosure, names: tuple[str, ...] | None = None
) -> FiniteResiduatedSemigroup:
    """Abstract tables of a closed family of relations, read off its closure."""
    if names is None:
        names = tuple(f"r{i}" for i in range(len(family)))
    leq = inclusion_order([rel.encode_relation(r) for r in family])
    return FiniteResiduatedSemigroup(
        names=names, leq=leq, comp=family.comp, lres=family.lres, rres=family.rres
    )


def generate_concrete(
    base_size: int,
    seed: int | None = None,
    generators=None,
    max_relations: int = 512,
) -> tuple[FiniteResiduatedSemigroup, Interpretation]:
    """Build a representable-by-construction algebra and its identity interpretation.

    When no generator relations are given, a seeded RNG draws one to three
    random relations over the base.
    """
    if base_size < 1:
        raise ValueError("base must be nonempty")
    if generators is None:
        rng = random.Random(seed)
        count = rng.randint(1, 3)
        generators = [
            tuple(rng.randrange(1 << base_size) for _ in range(base_size))
            for _ in range(count)
        ]
    family = close_relation_family(generators, base_size, max_relations)
    A = algebra_of_relations(family)
    interp = Interpretation(
        algebra=A,
        base_labels=tuple(str(i) for i in range(base_size)),
        relations=family,
    )
    return A, interp
