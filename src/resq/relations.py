"""Binary relations over a finite base as bit matrices.

A relation over a base of size n is a tuple of n ints; bit j of row i is
set iff the pair (i, j) belongs to the relation.  Tuples of ints are cheap,
hashable and compare bitwise, which is what the inner loops need.  Named
relations over a base are an Interpretation, read from and written to the
[x, y] pair lists of dumps and models here.
"""

from __future__ import annotations

import itertools
import json
import operator
import struct
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .errors import QUOTE_LIMIT, DimensionMismatch, ParseError, ResourceLimitError, quote

Relation = tuple[int, ...]

MAX_BASE = 4096  # a larger base of a dump or model is refused before its points exist


def empty_relation(n: int) -> Relation:
    return (0,) * n


def relation_from_pairs(n: int, pairs) -> Relation:
    rows = [0] * n
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            pair = f"({x}, {y})"  # a pair of long ints is cut like other input
            shown = pair if len(pair) <= QUOTE_LIMIT else quote(pair)
            raise DimensionMismatch(f"pair {shown} outside base of size {n}")
        rows[x] |= 1 << y
    return tuple(rows)


def load_json(text: str, what: str):
    """The value of the JSON text of a dump or model (what names it in
    messages); raises ParseError when the text is not JSON, nests too deep
    or repeats a key in an object at any depth."""

    def unique(pairs) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise ParseError(f"{what} repeats the key {quote(key)}")
            out[key] = value
        return out

    try:
        return json.loads(text, object_pairs_hook=unique)
    except ParseError:  # a repeated key; ParseError is a ValueError, so it must pass first
        raise
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"{what} is not valid JSON: {exc}") from None


def check_base_size(size: int, what: str) -> None:
    """Raise ResourceLimitError ('<what> exceeds the cap (limit MAX_BASE)')
    for a base of more than MAX_BASE points."""
    if size > MAX_BASE:
        raise ResourceLimitError(MAX_BASE, f"{what} exceeds the cap")


def is_pair_list(value) -> bool:
    """Whether a JSON value is a list of [x, y] pairs of ints (bools excluded)."""
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in value
    )


def read_relations(named: dict, names, base_size: int, what: str) -> tuple[Relation, ...]:
    """The relation of each of names, read off its list of [x, y] pairs in
    named; raises ParseError ('<what> <name> must be ...') for a value that is
    no such list, DimensionMismatch for a pair outside the base."""
    out = []
    for name in names:
        if not is_pair_list(named[name]):
            raise ParseError(f"{what} {quote(name)} must be a list of [x, y] pairs")
        out.append(relation_from_pairs(base_size, named[name]))
    return tuple(out)


def relation_pairs(r: Relation) -> list[tuple[int, int]]:
    """All pairs of the relation in row-major order."""
    out = []
    for x, row in enumerate(r):
        while row:
            low = row & -row
            out.append((x, low.bit_length() - 1))
            row ^= low
    return out


def pair_lists(r: Relation) -> list[list[int]]:
    """The pairs of the relation as the [x, y] lists of dumps and models."""
    return [list(p) for p in relation_pairs(r)]


def pairs_text(pairs) -> str:
    """[x, y] pairs as the text of dumps and countermodels: ' (x,y)' each."""
    return "".join(f" ({x},{y})" for x, y in pairs)


def _check_dims(r: Relation, s: Relation) -> None:
    """Raise DimensionMismatch for relations over bases of different sizes;
    the callers, on hot paths, compare the sizes inline and call this only
    to raise."""
    if len(r) != len(s):
        raise DimensionMismatch(f"bases of size {len(r)} and {len(s)} differ")


def rel_subset(r: Relation, s: Relation) -> bool:
    if len(r) != len(s):
        _check_dims(r, s)
    for a, b in zip(r, s):
        if a & ~b:
            return False
    return True


def rel_converse(r: Relation) -> Relation:
    """{(y, x) : (x, y) in r}: row x of the result is column x of r."""
    out = [0] * len(r)
    for z, row in enumerate(r):
        bit = 1 << z
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(out)


# Row x of r;s and of r/s depends only on row x of r, row x of r\s only on
# column x of r, and row x of r | s on x and row x of r: one key of r.  The
# rules below give the row of a key against s, and every row of every
# operation, whole relations included, is read off them (OPERATIONS).


def meet_rows(mask: int, rows, full: int) -> int:
    """The intersection of rows[z] over the bits z of mask; full when mask is
    empty.  With rows = s and full the full row, the row of r\\s at the column
    key mask."""
    acc = full
    while mask:
        low = mask & -mask
        acc &= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _compose_rows(keys, s: Relation) -> list[int]:
    """The row of r;s at each row key: the union of s[y] over its bits y."""
    out = []
    for key in keys:
        acc = 0
        while key:
            low = key & -key
            acc |= s[low.bit_length() - 1]
            key ^= low
        out.append(acc)
    return out


def _lres_rows(keys, s: Relation) -> list[int]:
    """The row of r\\s at each column key (meet_rows)."""
    full = (1 << len(s)) - 1
    return [meet_rows(key, s, full) for key in keys]


def _rres_rows(keys, s: Relation) -> list[int]:
    """The row of r/s at each row key: the y whose s[y] lies inside it."""
    out = []
    for key in keys:
        outside = ~key
        row = 0
        bit = 1
        for sy in s:
            if not sy & outside:
                row |= bit
            bit <<= 1
        out.append(row)
    return out


def _union_rows(keys, s: Relation) -> list[int]:
    """The row of r | s at each key (x, row): row | s[x]."""
    return [row | s[x] for x, row in keys]


def _row_keys(r: Relation) -> Relation:
    """The key of row x of r;s and of r/s: row x of r."""
    return r


def _indexed_keys(r: Relation) -> tuple:
    """The key of row x of r | s: the pair (x, row x of r)."""
    return tuple(enumerate(r))


def inclusion_order(family) -> tuple[int, ...]:
    """Order rows of a family by inclusion: bit j of row i set iff family[i] <=
    family[j]; a set given as a bitmask m is the one-row relation (m,).

    below[(x, row)] is the mask of the members whose row x contains row, so
    the members above r are the AND of below over the rows of r."""
    below: dict = {}
    everything = (1 << len(family)) - 1
    bits = [1 << j for j in range(len(family))]
    out = []
    for r in family:
        above = everything
        for key in enumerate(r):
            mask = below.get(key)
            if mask is None:
                x, row = key
                mask = 0
                for bit, s in zip(bits, family):
                    if not row & ~s[x]:
                        mask |= bit
                below[key] = mask
            above &= mask
        out.append(above)
    return tuple(out)


# ---------------------------------------------------------------------------
# relation codes
#
# A relation over n points is also its n * n-bit code, pair (i, j) at bit
# i * n + j.  A packed row holds a sequence of codes, one per field of
# code_bytes(n) bytes, as the int whose bytes in the machine's order are those
# fields: a native unsigned int each up to base 8, so one memoryview.cast reads
# a packed row back.  Row i of a code is its bits i * n .. i * n + n - 1, so a
# packed row of n-bit rows shifted left by i * n holds them as row i of each
# field, and keyed_codes ORs such shifts into a code in every field at once.

_CODE_ORDER = sys.byteorder
_CODE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def relation_code(r: Relation) -> int:
    """The code of r: bit i * n + j is pair (i, j)."""
    n = len(r)
    code = 0
    for i, row in enumerate(r):
        code |= row << (i * n)
    return code


def decode_relation(code: int, n: int) -> Relation:
    """The relation whose pair (i, j) is bit i * n + j of code."""
    mask = (1 << n) - 1
    return tuple(code >> (i * n) & mask for i in range(n))


def code_bytes(n: int) -> int:
    """The width of the field of one code over n points: 1, 2, 4 or 8 bytes
    up to base 8, the bytes of n * n bits above."""
    bits = n * n
    for width in _CODE_FORMATS:
        if bits <= 8 * width:
            return width
    return (bits + 7) // 8


def native_codes(n: int) -> bool:
    """Whether the field of a code over n points is a native unsigned int
    (1, 2, 4 or 8 bytes, so n <= 8)."""
    return code_bytes(n) in _CODE_FORMATS


def code_fields(codes, n: int) -> bytes:
    """The fields of codes over n points (each below 2 ** (n * n)), first
    code first: one bytes or struct.pack call up to base 8."""
    width = code_bytes(n)
    if width == 1:  # a one-byte field is the code itself
        return bytes(codes)
    fmt = _CODE_FORMATS.get(width)
    if fmt is not None:
        codes = tuple(codes)
        return struct.pack(f"={len(codes)}{fmt}", *codes)
    return b"".join([code.to_bytes(width, _CODE_ORDER) for code in codes])


def field_codes(fields, n: int):
    """The codes of the fields over n points held in the bytes fields, first
    field first: a memoryview of native ints up to base 8, a list above."""
    width = code_bytes(n)
    fmt = _CODE_FORMATS.get(width)
    if fmt is not None:
        return memoryview(fields).cast(fmt)
    return [int.from_bytes(fields[start:start + width], _CODE_ORDER)
            for start in range(0, len(fields), width)]


def pack_fields(fields) -> int:
    """The packed row whose fields are the bytes fields."""
    return int.from_bytes(fields, _CODE_ORDER)


def keyed_codes(rows: dict, keyed, n: int):
    """For the row keys of each relation in keyed, the packed codes over n
    points whose row x, in every field, is the field of the packed row
    rows[key x]: with rows[key] the packed rows a key gives under an operation
    against a run of right operands s (``Operation.keys``), these are the codes of
    op(r, s) over that run.  The shifted rows do not overlap, so their sum is
    their OR."""
    shifts = range(0, n * n, n or 1)
    return (sum(map(operator.lshift, map(rows.__getitem__, keys), shifts)) for keys in keyed)


def unpack_codes(packed_rows, count: int, n: int):
    """The codes of packed rows of count fields each over n points: the
    fields of the first row first, then those of the next."""
    size = count * code_bytes(n)
    return field_codes(b"".join([packed.to_bytes(size, _CODE_ORDER) for packed in packed_rows]), n)


def gather(values, indices) -> tuple:
    """values[i] for each i of indices, in one C-level pass
    (operator.itemgetter, which returns the bare item for one index)."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)(values)
    return tuple(values[i] for i in indices)


# ---------------------------------------------------------------------------
# bit-sliced relations
#
# The relations over a base of k points, ascending by encoding, are cut into
# blocks of at most 2**BLOCK_BITS lanes: lane j of block b stands for the
# relation with encoding b * lanes + j.  A sliced relation is a tuple of k * k
# ints, one per pair (i, j) at position i * k + j, whose bit j is set iff
# lane j holds a relation containing that pair.  A relation that is the same
# in every lane has the slices 0 and full (every lane).  The operations below
# act on all lanes of a block at once: each pair of the result is a few ANDs,
# ORs and XORs of operand slices, and each mask has bit j set iff the
# relation of lane j passes the test.

BLOCK_BITS = 16


def lane_bits(k: int) -> int:
    """log2 of the number of lanes of a block over a base of k points."""
    return min(k * k, BLOCK_BITS)


def block_count(k: int) -> int:
    """The number of blocks that hold the 2**(k*k) relations over k points."""
    return 1 << max(k * k - BLOCK_BITS, 0)


def full_mask(k: int) -> int:
    """The mask of every lane of a block over k points."""
    return (1 << (1 << lane_bits(k))) - 1


@lru_cache(maxsize=None)
def _low_slices(width: int) -> tuple[int, ...]:
    """Slice p < width of a block of 2**width lanes: the lanes j with bit p
    set, runs of 2**p clear lanes then 2**p set ones, in closed form."""
    full = (1 << (1 << width)) - 1
    out = []
    for p in range(width):
        run = 1 << p
        out.append(full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    return tuple(out)


def block_slices(k: int, block: int) -> tuple[int, ...]:
    """The sliced relation whose lane j is the relation with encoding
    block * lanes + j: positions past the lane bits are constant over the
    block, read off the block number."""
    width = lane_bits(k)
    full = full_mask(k)
    return _low_slices(width) + tuple(
        full if block >> (p - width) & 1 else 0 for p in range(width, k * k))


def constant_slices(r: Relation, full: int) -> tuple[int, ...]:
    """The sliced relation that is r in every lane of full."""
    n = len(r)
    return tuple(full if row >> y & 1 else 0 for row in r for y in range(n))


def set_lanes(mask: int):
    """The lanes of mask, ascending."""
    bits = bin(mask)[:1:-1]
    lane = bits.find("1")
    while lane >= 0:
        yield lane
        lane = bits.find("1", lane + 1)


def sliced_compose(k: int, full: int, r, s) -> tuple[int, ...]:
    """r;s lane by lane: pair (x, z) is the OR over y of r(x, y) AND s(y, z)."""
    out = []
    for x in range(0, k * k, k):
        row = r[x:x + k]
        for z in range(k):
            acc = 0
            for y, a in enumerate(row):
                if a:
                    acc |= a & s[y * k + z]
            out.append(acc)
    return tuple(out)


def sliced_lres(k: int, full: int, r, s) -> tuple[int, ...]:
    """r\\s lane by lane: pair (x, y) fails where some z has r(z, x) and not s(z, y)."""
    out = []
    for x in range(k):
        column = r[x::k]
        for y in range(k):
            bad = 0
            for z, a in enumerate(column):
                if a:
                    bad |= a & ~s[z * k + y]
            out.append(full ^ bad)
    return tuple(out)


def sliced_rres(k: int, full: int, r, s) -> tuple[int, ...]:
    """r/s lane by lane: pair (x, y) fails where some z has s(y, z) and not r(x, z)."""
    out = []
    for x in range(0, k * k, k):
        row = r[x:x + k]
        for y in range(0, k * k, k):
            bad = 0
            for b, a in zip(s[y:y + k], row):
                if b:
                    bad |= b & ~a
            out.append(full ^ bad)
    return tuple(out)


def sliced_union(k: int, full: int, r, s) -> tuple[int, ...]:
    """r | s lane by lane."""
    return tuple(a | b for a, b in zip(r, s))


def subset_mask(full: int, r, s) -> int:
    """The lanes whose r is inside their s."""
    bad = 0
    for a, b in zip(r, s):
        if a:
            bad |= a & ~b
    return full ^ bad


def equal_mask(full: int, r, s) -> int:
    """The lanes whose r equals their s."""
    bad = 0
    for a, b in zip(r, s):
        bad |= a ^ b
    return full ^ bad


# ---------------------------------------------------------------------------
# the operations


@dataclass(frozen=True)
class Operation:
    """One binary relational operation op in each of the forms the layers use.

    keys(r) is the key of each row of r: relations whose key x is the same
    give the same row x of op(., s) for every s.  rows(keys, s) is the row
    each of keys gives against the right operand s, and sliced(k, full, r, s)
    op lane by lane on sliced relations over k points.  apply(r, s) is the
    whole relation op(r, s), read off rows and keys.
    """

    keys: Callable[[Relation], tuple]
    rows: Callable[[Sequence, Relation], list[int]]
    sliced: Callable[[int, int, tuple, tuple], tuple[int, ...]]

    def apply(self, r: Relation, s: Relation) -> Relation:
        """op(r, s); raises DimensionMismatch when the bases differ."""
        if len(r) != len(s):
            _check_dims(r, s)
        return tuple(self.rows(self.keys(r), s))


# Every operation of the algebras, by the condition name the structures list
# it under; the one place that maps a name to code.
OPERATIONS: dict[str, Operation] = {
    "composition": Operation(_row_keys, _compose_rows, sliced_compose),
    "left-residual": Operation(rel_converse, _lres_rows, sliced_lres),
    "right-residual": Operation(_row_keys, _rres_rows, sliced_rres),
    "join": Operation(_indexed_keys, _union_rows, sliced_union),
}


@lru_cache(maxsize=1024)
def leader_mask(k: int, block: int) -> int:
    """The lanes of the block whose relation is the lex-leader of its orbit
    under base-point permutations: its encoding is at most that of every
    relabeling.  Relabeling by perm moves pair (perm[i], perm[j]) to (i, j), so
    the relabeled encoding's bit q is the slice at src[q]; the encodings are
    compared from the top bit down, a sliced lexicographic comparison."""
    slices = block_slices(k, block)
    keep = full_mask(k)
    positions = range(k * k - 1, -1, -1)
    for perm in itertools.permutations(range(k)):
        src = [perm[i] * k + perm[j] for i in range(k) for j in range(k)]
        less, same = 0, keep
        for q in positions:
            p = src[q]
            if p == q:
                continue
            a, b = slices[q], slices[p]
            less |= same & b & ~a
            same &= ~(a ^ b)
            if not same:
                break
        keep = less | same
        if not keep:
            break
    return keep


def canonical_relations(n: int) -> tuple[Relation, ...]:
    """Orbit representatives of relations under base-point permutations.

    A relation is kept iff its encoding is minimal in its orbit (the
    lex-leader lanes of every block), so the result is ascending by encoding
    and any relation can be permuted onto a member.
    """
    lanes = 1 << lane_bits(n)
    return tuple(decode_relation(block * lanes + lane, n)
                 for block in range(block_count(n))
                 for lane in set_lanes(leader_mask(n, block)))


@dataclass(frozen=True)
class Interpretation:
    """Named relations over a labelled finite base: names[i] denotes
    relations[i].  Representation dumps, search results and Lambek models are
    all Interpretations; search results and models label their points "0".."k-1"."""

    names: tuple[str, ...]
    base_labels: tuple[str, ...]
    relations: tuple[Relation, ...]

    @property
    def base_size(self) -> int:
        return len(self.base_labels)

    @property
    def valuation(self) -> tuple[tuple[str, Relation], ...]:
        """The (name, relation) pairs."""
        return tuple(zip(self.names, self.relations))
