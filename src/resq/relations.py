"""Binary relations over a finite base as bit matrices.

A relation over a base of size n is a tuple of n ints; bit j of row i is
set iff the pair (i, j) belongs to the relation.  Tuples of ints are cheap,
hashable and compare bitwise, which is what the inner loops need.  A family
of relations is stacked (Stack) so that each operation acts on every member
at once, and transpose gives the converses of a whole family.  Named
relations over a base are an Interpretation; every dump and model that
carries one is read and written here alone, as text and as JSON.
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


def relation_pairs(r: Relation) -> list[tuple[int, int]]:
    """All pairs of the relation in row-major order."""
    out = []
    for x, row in enumerate(r):
        while row:
            low = row & -row
            out.append((x, low.bit_length() - 1))
            row ^= low
    return out


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
        if a & b != a:
            return False
    return True


def rel_converse(r: Relation) -> Relation:
    """{(y, x) : (x, y) in r}: row x of the result is column x of r, the
    transpose of r as a family of one."""
    return transpose(Stack((r, 1, field_bits(len(r)), None))).rows


def meet_rows(mask: int, rows, full: int) -> int:
    """The intersection of rows[z] over the bits z of mask; full when mask is
    empty.  With rows a stack and full its full row, the row of r\\s at the
    column key mask against every member."""
    acc = full
    while mask:
        low = mask & -mask
        acc &= rows[low.bit_length() - 1]
        mask ^= low
    return acc


# ---------------------------------------------------------------------------
# packed rows: relation codes and stacked families
#
# A packed row holds a sequence of values, one per field of a fixed number of
# bits, field j at bits j * width ..: the int whose little-endian bytes are
# the fields.  A field of 1, 2, 4 or 8 bytes is an unsigned int struct.pack
# writes and, on a little-endian machine, memoryview.cast reads back in one
# call.  An AND, OR or shift of whole packed rows acts on every field at once.
#
# A relation over n points is also its n * n-bit code, pair (i, j) at bit
# i * n + j, in a field of code_bytes(n) bytes: a native int up to base 8.
# Row i of a code is its bits i * n .. i * n + n - 1, so a packed row of n-bit
# rows shifted left by i * n holds them as row i of each field, and
# Operation.codes ORs such shifts into a code in every field at once.
#
# A family of relations over n points is stacked as n packed rows (Stack):
# row y of the stack holds row y of member j in field j.  The rules of the
# operations below act on a whole stack, so the row one key gives against
# every member is one packed row, and a single relation is the stack of a
# family of one, with its own rows as the stack's.  A stack whose fields are
# as wide as codes (code_bits) gives packed rows that Operation.codes shifts
# into packed codes.

_CODE_ORDER = "little"
_CODE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_NATIVE_LITTLE = sys.byteorder == "little"


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


def _join_fields(values, width: int) -> bytes:
    """The fields of width bytes holding values, first value first: one bytes
    or struct.pack call for a native width."""
    if width == 1:  # a one-byte field is the value itself
        return bytes(values)
    fmt = _CODE_FORMATS.get(width)
    if fmt is not None:
        values = tuple(values)
        return struct.pack(f"<{len(values)}{fmt}", *values)
    return b"".join([value.to_bytes(width, _CODE_ORDER) for value in values])


def _split_fields(fields, width: int):
    """The values of the fields of width bytes held in the bytes fields, first
    field first: a memoryview of native ints for a native width on a
    little-endian machine, a list otherwise."""
    fmt = _CODE_FORMATS.get(width)
    if fmt is not None and _NATIVE_LITTLE:
        return memoryview(fields).cast(fmt)
    return [int.from_bytes(fields[start:start + width], _CODE_ORDER)
            for start in range(0, len(fields), width)]


def code_fields(codes, n: int) -> bytes:
    """The fields of codes over n points (each below 2 ** (n * n)), first
    code first: one bytes or struct.pack call up to base 8."""
    return _join_fields(codes, code_bytes(n))


def pack_fields(fields) -> int:
    """The packed row whose fields are the bytes fields."""
    return int.from_bytes(fields, _CODE_ORDER)


def unpack_codes(packed_rows, count: int, n: int):
    """The codes of packed rows of count fields each over n points: the
    fields of the first row first, then those of the next, as a memoryview
    of native ints up to base 8 (on a little-endian machine), a list
    otherwise."""
    width = code_bytes(n)
    size = count * width
    return _split_fields(b"".join([packed.to_bytes(size, _CODE_ORDER) for packed in packed_rows]),
                         width)


def gather(values, indices) -> tuple:
    """values[i] for each i of indices, in one C-level pass
    (operator.itemgetter, which returns the bare item for one index)."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)(values)
    return (values[indices[0]],) if indices else ()


class Stack(tuple):
    """A family of count relations over len(rows) points, stacked: rows[y]
    holds row y of member j in field j, of width bits each; columns is None
    or the rows of the transposition (transpose), row x holding column x of
    every member.  The tuple (rows, count, width, columns), built as
    Stack((rows, count, width, columns)): a plain tuple's constructor, which
    the one-member stacks of Operation.apply make on every call."""

    __slots__ = ()
    rows = property(operator.itemgetter(0))
    count = property(operator.itemgetter(1))
    width = property(operator.itemgetter(2))
    columns = property(operator.itemgetter(3))


@lru_cache(maxsize=None)
def field_bits(n: int) -> int:
    """The width of a field of a stack over n points: the least power of two
    of at least n bits and at least 8, a native int up to base 64, as the
    transposition needs.  Cached, as every Operation.apply asks for it: one
    entry per base size met."""
    return max(8, 1 << (n - 1).bit_length())


def code_bits(n: int) -> int:
    """The width of a field of a stack over n points whose stacked rows
    Operation.codes shifts into packed codes: that of a code, n * n bits
    rounded up to 1, 2, 4 or 8 bytes up to base 8 and to whole bytes above,
    so never less than field_bits(n)."""
    return 8 * code_bytes(n)


def stack(family, n: int) -> Stack:
    """The stack of the relations of family over n points, with fields of
    field_bits(n)."""
    family = tuple(family)
    return stack_fields(zip(*family), len(family), n)


def stack_fields(fields, count: int, n: int) -> Stack:
    """The stack of count relations over n points whose row y holds the
    values fields[y], one per member, with fields of field_bits(n): all rows
    are written as one run of bytes and cut into packed rows."""
    width = field_bits(n)
    if not count:
        return Stack(((0,) * n, 0, width, None))
    size = count * width // 8
    data = _join_fields(itertools.chain.from_iterable(fields), width // 8)
    return Stack((tuple([pack_fields(data[start:start + size])
                         for start in range(0, n * size, size)]), count, width, None))


def stack_codes(codes, n: int) -> Stack:
    """The stack of the relations whose codes over n points are codes, with
    fields of code_bits(n): row y of the stack is the packed codes shifted
    down by y * n, each field cut to its low n bits."""
    codes = tuple(codes)
    width = code_bits(n)
    packed = pack_fields(code_fields(codes, n))
    low = field_ones(len(codes), width) * ((1 << n) - 1)
    return Stack((tuple([packed >> shift & low for shift in range(0, n * n, n or 1)]),
                  len(codes), width, None))


def unstack(s: Stack) -> list[Relation]:
    """The members of the stack s, first field first."""
    rows, count = s[:2]
    if not rows:
        return [()] * count
    return list(zip(*stacked_rows(rows, s)))


def stacked_rows(packed_rows, s: Stack) -> list:
    """The fields of each of packed_rows, packed like the rows of s: the row
    of each member, first field first, as a sequence of ints.  All rows are
    read as one run of bytes; with at most one field, a row needs no cut."""
    count, width = s[1:3]
    if count < 2:
        return [(packed,) * count for packed in packed_rows]
    size = count * width // 8
    values = _split_fields(b"".join([packed.to_bytes(size, _CODE_ORDER)
                                     for packed in packed_rows]), width // 8)
    return [values[start:start + count] for start in range(0, len(values), count)]


def field_ones(count: int, width: int) -> int:
    """The packed row of count fields of width bits holding 1 each: times a
    row, that row in every field."""
    return ((1 << count * width) - 1) // ((1 << width) - 1)


def inclusion_order(family, stacked: Stack | None = None) -> tuple[int, ...]:
    """Order rows of a sequence of relations over one base by inclusion: bit
    j of row i set iff family[i] lies inside family[j]; a set given as a
    bitmask m is the one-row relation (m,).  stacked is the stack of family
    when the caller holds one; without it, family is stacked here with
    fields of whole bytes as wide as its widest row.

    For a value v of row y, v * ones & lack, with lack = full ^ rows[y],
    marks the fields of the members whose row y lacks a bit of v, and a
    packed row of such marks becomes the mask of its unmarked fields
    (_clear_fields, one pass for all rows).  Either each distinct key (y, v)
    gives the members whose row y contains v, and a member's order row is
    the AND of those of its keys, or each member's marks over all its rows
    are ORed and give its order row directly: one compression per distinct
    key or one per member, whichever are fewer."""
    count = len(family)
    if not count:
        return ()
    columns = list(zip(*family))
    keys = [set(column) for column in columns]
    spans = (max(map(max, keys), default=0).bit_length() + 7) // 8  # the bytes a row takes
    if stacked is None:
        width = 8 * max(1, spans)
        rows = [pack_fields(_join_fields(column, width // 8)) for column in columns]
    else:
        rows, _, width = stacked[:3]
    ones = field_ones(count, width)
    full = ones * ((1 << width) - 1)
    lacks = [full ^ row for row in rows]
    # Both ways stay, because one compression per member alone took 21-27 ms
    # against 4.3-4.6 ms on the 100 calls of the concrete workload, and one
    # per key alone 7.7-12 ms against 4.8-5.9 ms on the 268 calls of the
    # represent workload (in process, best of 5-7)
    if sum(map(len, keys)) < count:
        below = iter(_clear_fields([v * ones & lack for values, lack in zip(keys, lacks)
                                    for v in values], count, width, spans))
        above = [(1 << count) - 1] * count
        for values, column in zip(keys, columns):
            above = list(map(operator.and_, above,
                             map(dict(zip(values, below)).__getitem__, column)))
        return tuple(above)
    marks = []
    for r in family:
        acc = 0
        for v, lack in zip(r, lacks):
            if v:
                acc |= v * ones & lack
        marks.append(acc)
    return tuple(_clear_fields(marks, count, width, spans))


# byte 0 to the digit 1, every other byte to the digit 0
_ZERO_DIGITS = bytes.maketrans(bytes(range(256)), b"1" + b"0" * 255)


def _clear_fields(packed_rows, count: int, width: int, spans: int) -> list[int]:
    """The mask of the fields that are 0 in each of packed_rows, count fields
    of width bits each, whose bits lie in the low spans bytes of every field:
    bit j set iff field j is 0.  All rows are written as one run of bytes,
    the low bytes of each field are ORed into one (one slice per byte), and
    each byte becomes a digit, 1 for 0; read last field first, the digits of
    a row are its mask as a binary numeral."""
    step = width // 8
    data = b"".join([packed.to_bytes(count * step, _CODE_ORDER) for packed in packed_rows])
    if step > 1:
        folded = 0
        for k in range(spans):
            folded |= int.from_bytes(data[k::step], _CODE_ORDER)
        data = folded.to_bytes(len(data) // step, _CODE_ORDER)
    digits = data.translate(_ZERO_DIGITS)[::-1]  # the last row first
    return [int(digits[start - count:start], 2) for start in range(len(digits), 0, -count)]


def with_columns(s: Stack) -> Stack:
    """s carrying its columns, so that the left residual's keys of its
    members and the right residual's rows against them share one
    transposition."""
    return s if s.columns is not None else Stack((*s[:3], transpose(s).rows))


def transpose(s: Stack) -> Stack:
    """The stack of the converses of the members of s: row x holds column x
    of every member.  It carries the rows of s as its columns, and when s
    carries its columns they are its rows.

    Every member is flipped across its diagonal by masked shifts of whole
    rows (the recursive block transpose): with N the least power of two of
    at least n, and rows n .. N - 1 empty, one pass per bit t < N swaps bit t
    of the row index with bit t of the column index, exchanging each pair
    (y, x) with bit t clear in y and set in x with (y + t, x - t): between
    rows y and y + t, one XOR of the shifted rows cut to the columns with bit
    t clear in every field (_exchanges) says which bits differ, and two XORs
    swap them.  Fields are at least N bits wide (field_bits), so no bit
    leaves its field on the way."""
    rows, count, width, columns = s
    if columns is not None:
        return Stack((columns, count, width, rows))
    n = len(rows)
    if n < 2 or not count:
        return Stack((rows, count, width, rows))
    size = 1 << (n - 1).bit_length()
    out = [*rows, *(0,) * (size - n)]
    for t, kept, upper in _exchanges(size, count, width):
        for y in upper:
            a, b = out[y], out[y + t]
            swap = (a >> t ^ b) & kept
            if swap:
                out[y] = a ^ swap << t
                out[y + t] = b ^ swap
    return Stack((tuple(out[:n]), count, width, rows))


@lru_cache(maxsize=256)
def _exchanges(size: int, count: int, width: int) -> tuple:
    """The passes of the transposition of a stack of count fields of width
    bits over size rows (a power of two): for each t = 1, 2, 4, .. below
    size, t, the packed row of the columns x < size with bit t clear in every
    field, and the rows y with bit t clear."""
    ones = field_ones(count, width)
    out = []
    t = 1
    while t < size:
        kept = ((1 << size) - 1) // ((1 << 2 * t) - 1) * ((1 << t) - 1)
        out.append((t, ones * kept, tuple(y for y in range(size) if not y & t)))
        t <<= 1
    return tuple(out)


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
# relation of lane j passes the test.  A batch of runs lays several blocks
# side by side, run i holding lanes i * lanes to (i + 1) * lanes - 1: its
# slices are as wide as runs * lanes bits, at most 2**BLOCK_BITS.
#
# Every slice and mask lies in [0, full], and the lanes of x less those of y
# are x ^ (x & y), never x & ~y: ~y is -(y + 1), a new int as wide as y, and
# ANDing a negative int converts it to two's complement once more.  On
# 2**16-lane ints x & ~y takes 3.3-3.7 us and x ^ (x & y) 0.56-0.60 us
# (timeit, Python 3.11), and the search workload's verdicts/s rose 11-14%.
# Complementing every slice once per call (full ^ v) and ANDing that was no
# faster (a search pass 5.58-5.70 ms against 5.59-5.65 ms), as the kernels
# skip the terms of empty slices and most complements would go unread.

BLOCK_BITS = 16


def lane_bits(k: int) -> int:
    """log2 of the number of lanes of a block over a base of k points."""
    return min(k * k, BLOCK_BITS)


def block_count(k: int) -> int:
    """The number of blocks that hold the 2**(k*k) relations over k points."""
    return 1 << max(k * k - BLOCK_BITS, 0)


def full_mask(k: int, runs: int = 1) -> int:
    """The mask of every lane of a batch of runs blocks over k points."""
    return (1 << (runs << lane_bits(k))) - 1


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


def block_slices(k: int, block: int, runs: int = 1) -> tuple[int, ...]:
    """The sliced relation whose lane j of each of runs runs is the relation
    with encoding block * lanes + j: positions past the lane bits are
    constant over the block, read off the block number.  Runs are whole
    blocks, so lane i * lanes + j has the low bits of j, and the slices of
    the lane bits are those of the smallest block that holds every run, cut
    to the batch."""
    width = lane_bits(k)
    size = runs << width
    full = (1 << size) - 1
    low = _low_slices((size - 1).bit_length())[:width]
    if size & (size - 1):
        low = tuple(s & full for s in low)
    return low + tuple(full if block >> (p - width) & 1 else 0 for p in range(width, k * k))


def _one_per_run(values, lanes: int) -> tuple[int, int]:
    """The int whose run i of lanes bits holds values[i] (each below
    2**lanes), and the int with the lowest bit of each run set, over the
    least power of two of runs, at least one, that holds the values (the
    runs past them hold 0).  Both are joined pairwise: neighbouring runs,
    then pairs of pairs, one shift and OR a pair, with an empty run after an
    odd count; the pairs of starts are all alike, so a level joins them once.
    One path for runs of any width, base 1's two-lane runs included."""
    values = list(values)
    starts, width = 1, lanes
    while len(values) > 1:
        if len(values) & 1:
            values.append(0)
        pairs = iter(values)
        values = [low | high << width for low, high in zip(pairs, pairs)]
        starts |= starts << width
        width <<= 1
    return (values[0] if values else 0), starts


def spread_slices(codes, k: int) -> tuple[int, ...]:
    """The sliced relation whose run i is the relation of code codes[i] in
    every lane; k * k empty slices when there are no codes.  With the codes
    laid out one to a run and the runs' starts (_one_per_run), slice p is
    bit p of each run kept at the run's start, t, and filled up to the run's
    end, (t << lanes) - t; the layout is empty past the last run, so no
    slice reaches past it."""
    lanes = 1 << lane_bits(k)
    packed, starts = _one_per_run(codes, lanes)
    out = []
    for p in range(k * k):
        t = packed >> p & starts
        out.append((t << lanes) - t)
    return tuple(out)


def lane_codes(k: int, runs: int, sliced, positions) -> list[int]:
    """The code of the relation that each lane of positions holds in a
    sliced relation over a batch of runs blocks over k points: bit p of a
    code is the lane's bit of slice p, read off the bytes of the slice."""
    size = ((runs << lane_bits(k)) + 7) >> 3
    at = [(position >> 3, position & 7) for position in positions]
    codes = [0] * len(at)
    for p, s in enumerate(sliced):
        data = s.to_bytes(size, _CODE_ORDER)
        codes = [code | (data[i] >> shift & 1) << p for code, (i, shift) in zip(codes, at)]
    return codes


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
                    bad |= a ^ (a & s[z * k + y])
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
                    bad |= b ^ (b & a)
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
            bad |= a ^ (a & b)
    return full ^ bad


def equal_mask(full: int, r, s) -> int:
    """The lanes whose r equals their s."""
    bad = 0
    for a, b in zip(r, s):
        bad |= a ^ b
    return full ^ bad


# ---------------------------------------------------------------------------
# the operations
#
# Row x of r;s and of r/s depends only on row x of r, row x of r\s only on
# column x of r, and row x of r | s on x and row x of r: one key of r.  The
# rules below give the row of a key against every member of a stack, as one
# packed row, and every row of every operation, whole relations included, is
# read off them (OPERATIONS).


def _compose_rows(keys, s: Stack) -> list[int]:
    """The row of r;s at each row key: the union of s[y] over its bits y."""
    rows = s.rows
    out = []
    for key in keys:
        acc = 0
        while key:
            low = key & -key
            acc |= rows[low.bit_length() - 1]
            key ^= low
        out.append(acc)
    return out


def _lres_rows(keys, s: Stack) -> list[int]:
    """The row of r\\s at each column key (meet_rows from the full row in
    every field)."""
    rows, count, width = s[:3]
    full = field_ones(count, width) * ((1 << len(rows)) - 1)
    return [meet_rows(key, rows, full) for key in keys]


def _rres_rows(keys, s: Stack) -> list[int]:
    """The row of r/s at each row key: the y whose s[y] lies inside it, the
    full row less the union of the columns of s at the points outside the
    key.  The columns are the rows of the transposed stack; the union below
    the key's lowest point and above its highest is read off running ORs of
    them (below[y] of the columns before y, above[y] of those from y on), and
    only the gaps between are taken column by column, so a key of one run of
    points costs two ORs."""
    _, count, width = s[:3]
    columns = transpose(s).rows
    full = field_ones(count, width) * ((1 << len(columns)) - 1)
    below = [acc := 0]
    for column in columns:
        below.append(acc := acc | column)
    above = [acc := 0]
    for column in reversed(columns):
        above.append(acc := acc | column)
    above.reverse()
    out = []
    for key in keys:
        if not key:
            out.append(full ^ below[-1])
            continue
        low = (key & -key).bit_length() - 1
        high = key.bit_length()
        hit = below[low] | above[high]
        gaps = ((1 << high) - (1 << low)) ^ key
        while gaps:
            bit = gaps & -gaps
            hit |= columns[bit.bit_length() - 1]
            gaps ^= bit
        out.append(full ^ hit)
    return out


def _union_rows(keys, s: Stack) -> list[int]:
    """The row of r | s at each key (x, row): row in every field, or s[x]."""
    rows, ones = s.rows, field_ones(s.count, s.width)
    return [row * ones | rows[x] for x, row in keys]


def _row_keys(family, stacked: Stack) -> list:
    """The keys of the rows of r;s and r/s for each r of family: its rows."""
    return list(family)


def _column_keys(family, stacked: Stack) -> list:
    """The keys of the rows of r\\s for each r of family: its columns, read
    off one transposition of stacked, the stack of the whole family (its
    columns when it carries them)."""
    return unstack(transpose(stacked))


def _indexed_keys(family, stacked: Stack) -> list:
    """The keys of the rows of r | s for each r of family: the pairs (x, row x)."""
    return [tuple(enumerate(r)) for r in family]


@dataclass(frozen=True)
class Operation:
    """One binary relational operation op in each of the forms the layers use.

    keys(family, stacked) is, for each relation r of the sequence family,
    whose stack is stacked, the key of each row of r: relations whose key x
    is the same give the same row x of op(., s) for every s.
    rows(keys, stack) is the packed row each of keys gives against all
    members s of the stack at once, field j holding the row against member
    j, and sliced(k, full, r, s) op lane by lane on sliced relations over k
    points.  codes(keyed, family) is op(r, s) over the members s of a stack
    of codes' width as packed codes, and apply(r, s) the whole relation
    op(r, s), both read off keys and rows.
    """

    keys: Callable[[Sequence[Relation], Stack], list]
    rows: Callable[[Sequence, Stack], list[int]]
    sliced: Callable[[int, int, tuple, tuple], tuple[int, ...]]

    def codes(self, keyed, family: Stack) -> list[int]:
        """For the row keys of each relation r in keyed (keys), the packed
        codes of op(r, s) over the members s of family, a stack of fields
        code_bits wide: field j holds the code of op(r, s) for member j.  The
        rows of the distinct keys come from one rows call, and row x of r's
        codes is the row of its key x shifted to x * n; the shifted rows do
        not overlap, so their sum is their OR."""
        distinct = list(dict.fromkeys(itertools.chain.from_iterable(keyed)))
        rows = dict(zip(distinct, self.rows(distinct, family)))
        n = len(family.rows)
        shifts = range(0, n * n, n or 1)
        return [sum(map(operator.lshift, map(rows.__getitem__, keys), shifts)) for keys in keyed]

    def apply(self, r: Relation, s: Relation) -> Relation:
        """op(r, s); raises DimensionMismatch when the bases differ."""
        n = len(s)
        if len(r) != n:
            _check_dims(r, s)
        width = field_bits(n)
        keys = self.keys((r,), Stack((r, 1, width, None)))[0]
        return tuple(self.rows(keys, Stack((s, 1, width, None))))


# Every operation of the algebras, by the condition name the structures list
# it under; the one place that maps a name to code.
OPERATIONS: dict[str, Operation] = {
    "composition": Operation(_row_keys, _compose_rows, sliced_compose),
    "left-residual": Operation(_column_keys, _lres_rows, sliced_lres),
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
            t = same & b
            less |= t ^ (t & a)
            same ^= same & (a ^ b)
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


# ---------------------------------------------------------------------------
# dumps and models: an Interpretation as text and as JSON
#
# A representation dump labels its points and binds an algebra's elements; a
# model numbers its points 0..k-1 and values atoms.  Both JSON forms are read
# by one path: _load_json, _check_base_size and _read_relations.

MAX_BASE = 4096  # a larger base of a dump or model is refused before its points exist


def _load_json(text: str, what: str, not_object: str) -> dict:
    """The object of the JSON text of a dump or model (what names it in
    messages); raises ParseError when the text is not JSON, nests too deep or
    repeats a key in an object at any depth, and ParseError(not_object) when
    its value is no object."""

    def unique(pairs) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise ParseError(f"{what} repeats the key {quote(key)}")
            out[key] = value
        return out

    try:
        payload = json.loads(text, object_pairs_hook=unique)
    except ParseError:  # a repeated key; ParseError is a ValueError, so it must pass first
        raise
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(not_object)
    return payload


def _check_base_size(size: int, what: str) -> None:
    """Raise ResourceLimitError ('<what> exceeds the cap (limit MAX_BASE)')
    for a base of more than MAX_BASE points."""
    if size > MAX_BASE:
        raise ResourceLimitError(MAX_BASE, f"{what} exceeds the cap")


def _read_relations(named: dict, names, base_size: int, what: str) -> tuple[Relation, ...]:
    """The relation of each of names, read off its list of [x, y] pairs of
    ints (bools excluded) in named; raises ParseError ('<what> <name> must be
    ...') for a value that is no such list, DimensionMismatch for a pair
    outside the base."""
    out = []
    for name in names:
        pairs = named[name]
        if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2
                                                and all(type(v) is int for v in p) for p in pairs)):
            raise ParseError(f"{what} {quote(name)} must be a list of [x, y] pairs")
        out.append(relation_from_pairs(base_size, pairs))
    return tuple(out)


def _pair_lists(r: Relation) -> list[list[int]]:
    """The pairs of the relation as the [x, y] lists of dumps and models."""
    return [list(p) for p in relation_pairs(r)]


def _pairs_text(pairs) -> str:
    """[x, y] pairs as the text of dumps and models: ' (x,y)' each."""
    return "".join(f" ({x},{y})" for x, y in pairs)


def interpretation_payload(I: Interpretation) -> dict:
    """The JSON dump of I: its point labels, its names and their pairs."""
    return {
        "base": list(I.base_labels),
        "elements": list(I.names),
        "relations": {name: _pair_lists(r) for name, r in I.valuation},
    }


def format_interpretation_lines(payload: dict) -> list[str]:
    """The text dump of a JSON dump: its base line, then a rel line per element."""
    return ["base: " + " ".join(payload["base"])] + [
        f"rel {name}:" + _pairs_text(payload["relations"][name]) for name in payload["elements"]
    ]


def format_interpretation(I: Interpretation) -> str:
    return "\n".join(format_interpretation_lines(interpretation_payload(I))) + "\n"


def parse_interpretation(text: str, names: tuple[str, ...]) -> Interpretation:
    """Read a representation dump (text or its JSON mirror) and bind its
    relations to the element names of an algebra.  A JSON dump's optional
    'elements' must list the names, each once and in any order; other unknown
    keys are ignored.  A base of more than MAX_BASE points raises
    ResourceLimitError before any relation is read."""
    if text.lstrip().startswith("{"):
        no_base = "dump field 'base' must be a list of point labels"
        payload = _load_json(text, "dump", no_base)
        if not isinstance(payload.get("base"), list):
            raise ParseError(no_base)
        if not isinstance(payload.get("relations"), dict):
            raise ParseError("dump field 'relations' must be an object")
        elements = payload.get("elements", list(names))
        if not (isinstance(elements, list) and len(elements) == len(names)
                and all(isinstance(x, str) for x in elements) and set(elements) == set(names)):
            raise ParseError("dump field 'elements' must name each element of the algebra once")
        _check_base_size(len(payload["base"]), "dump field 'base'")
        base = tuple(str(x) for x in payload["base"])
        named = payload["relations"]
    else:
        base = None
        named = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("base:"):
                if base is not None:
                    raise ParseError("second base line", lineno)
                base = tuple(line[len("base:"):].split())
                _check_base_size(len(base), "dump base line")
            elif line.startswith("rel "):
                head, _, rest = line.partition(":")
                name = head[len("rel "):].strip()
                if name in named:
                    raise ParseError(f"second relation for element {quote(name)}", lineno)
                pairs = []
                for token in rest.split():
                    if not (token.startswith("(") and token.endswith(")")):
                        raise ParseError(f"expected (x,y), got {quote(token)}", lineno)
                    x, _, y = token[1:-1].partition(",")
                    try:
                        pairs.append([int(x), int(y)])
                    except ValueError:
                        raise ParseError(f"expected (x,y) with integer x, y, got {quote(token)}",
                                         lineno) from None
                named[name] = pairs
            else:
                raise ParseError(f"unexpected line {quote(line)}", lineno)
        if base is None:
            raise ParseError("missing base line")
    if not base:
        raise ParseError("dump base must list at least one point")
    if len(set(base)) < len(base):
        label = next(x for i, x in enumerate(base) if x in base[:i])
        raise ParseError(f"duplicate base label {quote(label)}")
    for name in named:
        if name not in names:
            raise ParseError(f"dump has a relation for {quote(name)}, which the algebra lacks")
    for name in names:
        if name not in named:
            raise ParseError(f"dump has no relation for element {quote(name)}")
    return Interpretation(names, base, _read_relations(named, names, len(base), "relation"))


def model_payload(M: Interpretation) -> dict:
    """The JSON model of M: its base size and the pairs of its names, not its labels."""
    return {"base": M.base_size, "valuation": {name: _pair_lists(r) for name, r in M.valuation}}


def format_model_lines(payload: dict) -> list[str]:
    """The text of a JSON model: its base line, then a v line per atom, sorted."""
    valuation = payload["valuation"]
    return [f"base: {payload['base']}"] + [
        f"v({name}):" + _pairs_text(valuation[name]) for name in sorted(valuation)
    ]


def parse_model(text: str) -> Interpretation:
    """Read a model, the JSON {"base": k, "valuation": {"p": [[x, y], ...]}}
    over the points 0..k-1, its atoms sorted and other keys ignored; raises
    ParseError for a malformed model, ResourceLimitError for a base above
    MAX_BASE and DimensionMismatch for a pair outside the base."""
    raw = _load_json(text, "model", "model must be a JSON object with 'base' and 'valuation'")
    base = raw.get("base")
    if type(base) is not int or base < 1:
        raise ParseError("model field 'base' must be an integer of at least 1")
    _check_base_size(base, "model field 'base'")
    named = raw.get("valuation")
    if not isinstance(named, dict):
        raise ParseError("model field 'valuation' must be an object")
    atoms = tuple(sorted(named))
    return Interpretation(atoms, tuple(map(str, range(base))),
                          _read_relations(named, atoms, base, "valuation of"))
