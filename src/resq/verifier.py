"""Exhaustive representation checking and bounded brute-force search.

A structure lists its signature as (condition name, index table) pairs in its
``operations``; each name stands for one relational operation (composition,
a residual, union).  The checker evaluates order faithfulness plus one
condition per listed operation against the explicit relational operation,
reporting the lexicographically first witness per failed condition.  The
search assigns relations over growing bases with constraint propagation and
base-point symmetry breaking, sweeping each branch's candidates a block at a
time in bit-sliced form (relations.block_slices), for a batch of up to
2**BLOCK_BITS // lanes surviving assignments of the branch before it at once,
one run of the block each.  Its nodes are those of trying one candidate at
a time, and a budget raises exactly when that walk's count passes its limit,
over the same base; the count a budget holds after it raises is not that
walk's.  It re-checks with the whole-relation kernels every surviving lane
that walk reaches, and re-verifies anything it returns.
"""

from __future__ import annotations

import collections
import heapq
import itertools
from dataclasses import dataclass

from . import relations as rel
from .algebra import Check, Report, transitivity
from .errors import DimensionMismatch, ResourceLimitError
from .relations import Interpretation

DEFAULT_NODE_BUDGET = 5_000_000


class NodeBudget:
    """Mutable node counter; raises once the limit is exceeded.  The limit is
    the explicit one when given, else the caller's default."""

    def __init__(self, limit: int | None = None, default: int = DEFAULT_NODE_BUDGET):
        self.limit = default if limit is None else limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise ResourceLimitError(self.limit)


def _table_condition(name, table, relations, family: rel.Stack, codes) -> Check:
    """Row a of the condition is op(R[a], R[b]) over every b, with op the
    operation named name, read off the row keys of R[a] (Operation.keys):
    the row each distinct key gives against every R[b] at once is one packed
    row against family, the stack of the relations (Operation.rows, one call
    for all keys).

    When codes are given (the codes of the relations, and family their
    stack, relations.stack_codes), row a is the packed codes of
    op(R[a], R[b]) over b (Operation.codes), and it is compared with those
    of R[table[a][b]] as one int; a row is unpacked only when it differs, so
    the witness is the same.  Otherwise each packed row is split into its
    fields, the rows against each R[b], and row a is compared as tuples."""
    op = rel.OPERATIONS[name]
    keyed = op.keys(relations, family)
    if codes is not None:
        n = len(family.rows)
        for a, packed in enumerate(op.codes(keyed, family)):
            if packed != rel.pack_fields(rel.code_fields(rel.gather(codes, table[a]), n)):
                actual = tuple(rel.decode_relation(code, n)
                               for code in rel.unpack_codes([packed], len(relations), n))
                failure = _row_failure(name, a, rel.gather(relations, table[a]), actual)
                if failure is not None:
                    return failure
        return Check(name, None)
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(keyed)))
    columns = dict(zip(distinct, rel.stacked_rows(op.rows(distinct, family), family)))
    for a, keys in enumerate(keyed):
        actual = tuple(zip(*map(columns.__getitem__, keys))) if keys else ((),) * len(relations)
        failure = _row_failure(name, a, rel.gather(relations, table[a]), actual)
        if failure is not None:
            return failure
    return Check(name, None)


def _row_failure(name, a, expected, actual) -> Check | None:
    """The failure at the first pair (x, y) of the first b whose
    op(R[a], R[b]), actual[b], is not expected[b], R[table[a][b]]; None when
    there is no such b."""
    if actual != expected:
        for b, (want, got) in enumerate(zip(expected, actual)):
            if want != got:
                x = next(x for x, (w, g) in enumerate(zip(want, got)) if w != g)
                diff = want[x] ^ got[x]
                return Check(name, (a, b, x, (diff & -diff).bit_length() - 1))
    return None


def _order_condition(leq, relations, family: rel.Stack) -> Check:
    """order-iff: a <= b exactly when the relation of a is inside that of b,
    read off family, the stack of the relations (relations.inclusion_order)."""
    for a, (want, got) in enumerate(zip(leq, rel.inclusion_order(relations, family))):
        diff = want ^ got
        if diff:
            return Check("order-iff", (a, (diff & -diff).bit_length() - 1))
    return Check("order-iff", None)


def check_representation(S, I: Interpretation) -> Report:
    """Evaluate order faithfulness and one condition per operation of S.

    S lists its operations as (condition name, index table) pairs; every
    condition is always checked.  A witness is (a, b) for order-iff, else
    (a, b, x, y) with (x, y) the first pair where op(R[a], R[b]) is wrong.
    R[a] is the a-th relation of I, and relations past S's elements are
    ignored.  Raises DimensionMismatch, before any condition runs, when I has
    fewer relations than S has elements or its relations lie over different
    bases.
    """
    if len(I.relations) < len(S.comp):
        raise DimensionMismatch(f"the interpretation has fewer relations ({len(I.relations)}) "
                                f"than the structure has elements ({len(S.comp)})")
    relations = I.relations[:len(S.comp)]
    if len({len(r) for r in relations}) > 1:
        raise DimensionMismatch("the relations of the interpretation have different bases")
    n = len(relations[0]) if relations else 0
    # the relations are stacked, as codes when their codes are native ints,
    # and transposed once for both residuals.  Both paths stay, because
    # stacked rows alone took 192-202 ms against 83 ms on the 50 closures of
    # the concrete workload (in process, best of 5-7), though 22-24 ms
    # against 24-26 ms on the 131 items of the represent workload
    if rel.native_codes(n):
        codes = list(map(rel.relation_code, relations))
        family = rel.stack_codes(codes, n)
    else:
        codes, family = None, rel.stack(relations, n)
    family = rel.with_columns(family)
    return Report((_order_condition(S.leq, relations, family),) + tuple(
        _table_condition(name, table, relations, family, codes) for name, table in S.operations
    ))


def check_union_transitive(I: Interpretation) -> bool:
    """Whether the union of all interpreted relations is transitive (advisory)."""
    join = rel.OPERATIONS["join"].apply
    union = rel.empty_relation(I.base_size)
    for r in I.relations:
        union = join(union, r)
    return transitivity(union) is None


@dataclass(frozen=True)
class Exhausted:
    """No assignment over any base of size <= max_base satisfies the conditions."""

    max_base: int


def search_representation(
    struct,
    max_base: int,
    budget: NodeBudget | None = None,
):
    """Search for a representation over bases of size 1..max_base.

    Enforces order faithfulness and every operation the structure lists, so
    the same search serves residuated semigroups and the join/composition
    reducts of the point algebra.  The first branched element ranges over
    base-permutation orbit representatives only, which never changes the
    verdict.  Found results are re-verified before being returned.  The
    nodes are spent from budget, a NodeBudget() of the default limit when
    none is given.
    """
    if budget is None:
        budget = NodeBudget()
    n = len(struct.names)
    equations = [(name, a, b, table[a][b])
                 for name, table in struct.operations for a in range(n) for b in range(n)]
    inclusions = [(a, b, struct.le(a, b)) for a in range(n) for b in range(n)]
    plan = plan_search(n, equations, inclusions)
    interp = first_model(plan, struct.names, max_base, budget)
    if interp is None:
        return Exhausted(max_base)
    if not check_representation(struct, interp).valid:
        raise AssertionError("search returned an assignment that fails verification")
    return interp


def plan_search(n: int, equations, inclusions) -> tuple:
    """The steps in which a search over n unknown relations assigns them.

    An equation (op, a, b, c) demands op(R[a], R[b]) == R[c], with op the
    name of a relational operation (relations.OPERATIONS); an inclusion (a, b,
    holds) demands (R[a] <= R[b]) == holds.  Whether an equation forces its c
    depends only on which unknowns are assigned, not on their values, so the
    order is fixed in advance: each step assigns the lowest unknown forced
    from assigned operands, else branches on the lowest unassigned.  A step
    is (unknown, (op, a, b) or None when it branches, the equations and the
    inclusions it completes); the forcing equation is not listed.
    """
    assigned = [False] * n
    # the positions of the equations and of the inclusions naming each unknown
    equations_of = [[] for _ in range(n)]
    inclusions_of = [[] for _ in range(n)]
    for index, e in enumerate(equations):
        for u in set(e[1:]):
            equations_of[u].append(index)
    for index, i in enumerate(inclusions):
        for u in set(i[:2]):
            inclusions_of[u].append(index)
    forceable = []  # heap of (c, position) of equations whose operands are assigned
    steps = []
    for _ in range(n):
        while forceable and assigned[forceable[0][0]]:
            heapq.heappop(forceable)
        forced = equations[forceable[0][1]] if forceable else None
        c = assigned.index(False) if forced is None else forced[3]
        assigned[c] = True
        completed = []  # ascending, as equations_of[c] is
        for index in equations_of[c]:
            _, a, b, d = equations[index]
            if assigned[a] and assigned[b]:
                if assigned[d]:
                    completed.append(index)
                else:
                    heapq.heappush(forceable, (d, index))
        steps.append((c, None if forced is None else forced[:3],
                      tuple(equations[index] for index in completed
                            if equations[index] != forced),
                      tuple(inclusions[index] for index in inclusions_of[c]
                            if assigned[inclusions[index][0]] and assigned[inclusions[index][1]])))
    return tuple(steps)


def first_model(plan: tuple, names, max_base: int, budget: NodeBudget) -> Interpretation | None:
    """The first assignment run_plan finds over a base of size 1..max_base, as
    the relations of names (the first unknowns) over the points "0".."k-1",
    or None.  A budget that runs out over a base of size k raises
    ResourceLimitError with bases_exhausted = k - 1."""
    for k in range(1, max_base + 1):
        try:
            values = run_plan(plan, k, budget)
        except ResourceLimitError as exc:
            raise ResourceLimitError(exc.limit, bases_exhausted=k - 1) from None
        if values is not None:
            return Interpretation(tuple(names), tuple(map(str, range(k))), values[:len(names)])
    return None


def run_plan(plan: tuple, k: int, budget: NodeBudget):
    """The first assignment over a base of size k meeting every constraint of
    the plan, or None.

    Branched unknowns take relations in ascending encoding, the first one
    only the base-permutation orbit representatives (relations.leader_mask):
    every assignment permutes onto one whose first branched value is a
    representative, and permuting the base keeps every constraint.

    A branch is swept a block of candidates at a time (relations.block_slices)
    for a batch of the surviving assignments of the branch before it: up to
    2**BLOCK_BITS // lanes of them (128 at k = 3, 4 096 at k = 2, one from
    k = 4 on, when a block is as wide as a batch), taken in order, each a
    run of the block's lanes.  The values set before the branch are spread
    over their runs from their codes (relations.spread_slices), the forced
    steps up to the next branch are evaluated with the sliced operations
    (Operation.sliced), and each step's checks become a mask of the lanes
    that pass them.  The surviving lanes, those passing every step up to the
    next branch, are handed on in ascending order, run by run, a batch at a
    time (one survivor at a time when no branch follows), each batch as
    columns: one per unknown, with a code per survivor, built from the
    columns of the survivors' runs, the branched unknown's codes
    (block * lanes + lane) and, when a branch follows, the codes of the
    forced values read off their slices (relations.lane_codes).  The next
    branch spreads a column over its runs as it is.

    Each survivor that the walk of one candidate at a time passes is
    re-checked once the next branch hands on a survivor of its run or ends
    a block, and the returned one before it is returned; those past the
    returned one are not, as that walk never reaches them.  A re-check
    decodes the values its steps read, recomputes its forced values with the
    whole-relation kernels (Operation.apply), re-runs every check of its
    steps with them and compares the forced values with the codes handed
    on; a disagreement raises AssertionError naming the survivor's block and
    lane.  The survivors of a branch whose steps force and check nothing
    have nothing to re-check.

    The nodes are those of trying one candidate at a time: one per candidate,
    one per forced step entered and one for the end or the next branch
    entered, in the nested order of that walk, where the nodes of an
    assignment's branch up to a survivor come before those of the survivor's
    own run at the next branch.  They are counted as popcounts of the masks:
    each survivor carries the nodes between it and the one before it, read
    off the lanes that the block's steps cut (_counted_lanes), and a
    sweep spends nodes only while no later branch holds an assignment it has
    not swept, so what is spent always comes before the first assignment the
    walk returns, and no lane past it is charged.  Each charge is spent
    whole, so what is spent is always a count the walk reaches before its
    first assignment, and its count once the sweep ends: a budget raises
    exactly when the walk's count passes its limit, after at most a batch of
    work per branch, though budget.used is then past it by up to the charge.
    No charge exceeds 2**BLOCK_BITS * (len(plan) + the branches): a block of
    branch j has at most 2**BLOCK_BITS * (its steps + 1) nodes, a lane of
    each mask each; what it charges and hands on over a batch is those and
    what the batch's runs carry (a batch of many runs is the base's one
    block), and the runs are survivors of one block of the branch before,
    so by induction it is within the bound summed over the branches up to j.
    """
    operations = rel.OPERATIONS
    subset_mask, equal_mask = rel.subset_mask, rel.equal_mask
    # the step of the next branch (or the end) after each step
    following = [len(plan)] * len(plan)
    for i in range(len(plan) - 2, -1, -1):
        following[i] = i + 1 if plan[i + 1][1] is None else following[i + 1]
    width = rel.lane_bits(k)
    lanes = 1 << width
    most = 1 << (rel.BLOCK_BITS - width)  # runs in a batch
    order = [step[0] for step in plan]  # the unknown each step sets
    # the steps from each branch up to the next
    steps_of = {j: plan[j:following[j]] for j, step in enumerate(plan) if step[1] is None}

    def holds(values, equations, inclusions) -> bool:
        for a, b, expected in inclusions:
            if rel.rel_subset(values[a], values[b]) != expected:
                return False
        for op, a, b, c in equations:
            if operations[op].apply(values[a], values[b]) != values[c]:
                return False
        return True

    relations: dict[int, tuple] = {}  # the relations decoded, by code

    def relation_of(code: int) -> tuple:
        got = relations.get(code)
        if got is None:
            got = relations[code] = rel.decode_relation(code, k)
        return got

    def reads(j: int) -> list | None:
        """The unknowns set up to branch step j that the steps from it read,
        or None when they force and check nothing."""
        operands = set()
        for _, forced, equations, inclusions in steps_of[j]:
            operands.update(forced[1:] if forced else ())
            for _, a, b, c in equations:
                operands.update((a, b, c))
            for a, b, _ in inclusions:
                operands.update((a, b))
        return [u for u in order[:j + 1] if u in operands] if operands else None

    def recheck(j: int, codes, decoded) -> list:
        """The values of a survivor of branch step j, re-checked with the
        kernels.  codes holds the encodings of the unknowns set up to it, and
        of the values its steps force when a branch follows; the unknowns of
        decoded are decoded, and the values its steps force recomputed."""
        values = [None] * len(plan)
        for u in decoded:
            values[u] = relation_of(codes[u])
        for c, forced, equations, inclusions in steps_of[j]:
            if forced is not None:
                op, a, b = forced
                values[c] = operations[op].apply(values[a], values[b])
            if not holds(values, equations, inclusions):
                why = f"passed the sliced checks of step {c} but fails them"
            elif forced is not None and codes[c] is not None \
                    and values[c] != relation_of(codes[c]):
                why = f"has a sliced value at step {c} that the kernels do not give"
            else:
                continue
            block, lane = divmod(codes[order[j]], lanes)
            raise AssertionError(f"lane {lane} of block {block} over base {k} {why}")
        return values

    def sweep(j: int, parent, batches):
        """The survivors of branch step j over the assignments of batches,
        the survivors of branch step parent (None before the first branch),
        lazily, in batches of up to taken survivors of one block each.  A
        batch is (columns, charges): columns[u] the codes of unknown u, one
        per survivor (None where it is not set), and charges the nodes
        between each survivor and the one before."""
        end = following[j]
        steps = steps_of[j]
        unknown = order[j]
        # the survivors taken at once, and the forced values handed on as
        # codes: a batch of them and every forced value when a branch
        # follows, else the returned one and none
        if end < len(plan):
            taken, kept = most, [c for c, forced, _, _ in steps if forced is not None]
        else:
            taken, kept = 1, []
        # what a re-check of a survivor of the branch before decodes, None
        # when there is nothing to re-check
        decoded = None if parent is None else reads(parent)

        # the nested functions read the batch and the block being swept
        def check_runs(upto: int) -> None:
            """Re-check the survivors of the branch before of the runs
            below upto."""
            nonlocal checked
            for run in range(checked, upto):
                recheck(parent, [column[run] for column in batch], decoded)
            checked = max(checked, upto)

        def operand(u: int, block_values: dict):
            got = block_values.get(u)
            if got is None:
                got = spread.get(u)
                if got is None:
                    got = spread[u] = rel.spread_slices(batch[u], k)
            return got

        def survivors(block, block_values):
            """The surviving lanes of the block in batches of up to taken.
            The codes of a batch are built by columns: those of the
            survivors' runs, the branched unknown's, block * lanes + lane,
            and one per kept forced value, read off its slices.  The runs of
            a batch are re-checked before it is handed on."""
            nonlocal last
            counted = _counted_lanes(masks)
            while group := list(itertools.islice(counted, taken)):
                positions, counts = zip(*group)
                runs_of = [position >> width for position in positions]
                columns = [rel.gather(column, runs_of) for column in batch]
                columns[unknown] = [block * lanes + (position & (lanes - 1))
                                    for position in positions]
                for c in kept:
                    columns[c] = rel.lane_codes(k, runs, block_values[c], positions)
                points = [before[run] + count for run, count in zip(runs_of, counts)]
                charges = [b - a for a, b in itertools.pairwise([last, *points])]
                last = points[-1]
                check_runs(runs_of[-1] + 1)
                yield columns, charges

        for batch, charges in batches:
            budget.spend(charges[0])  # the nodes before the first run
            runs = len(charges)
            # the nodes before each run, past those of the first
            before = list(itertools.accumulate(charges[1:], initial=0))
            full = rel.full_mask(k, runs)
            spread: dict[int, tuple] = {}  # the values set before step j, run by run
            checked = 0 if decoded is not None else runs  # runs re-checked
            for block in range(rel.block_count(k)):
                mask = rel.leader_mask(k, block) if j == 0 else full
                if not mask:
                    continue
                block_values = {unknown: rel.block_slices(k, block, runs)}
                # masks[0] holds the candidates, masks[t] those that enter
                # step j + t: the end or the next branch when j + t == end
                masks = [mask]
                for c, forced, equations, inclusions in steps:
                    if mask and forced is not None:
                        op, a, b = forced
                        block_values[c] = operations[op].sliced(
                            k, full, operand(a, block_values), operand(b, block_values))
                    for a, b, expected in inclusions:
                        if not mask:
                            break
                        inside = subset_mask(full, operand(a, block_values),
                                             operand(b, block_values))
                        mask &= inside if expected else full ^ inside
                    for op, a, b, c in equations:
                        if not mask:
                            break
                        got = operations[op].sliced(k, full, operand(a, block_values),
                                                    operand(b, block_values))
                        mask &= equal_mask(full, got, operand(c, block_values))
                    masks.append(mask)
                last = 0  # the nodes of the block charged or handed on
                if mask:
                    yield from survivors(block, block_values)
                check_runs(runs)
                budget.spend(before[-1] + sum(m.bit_count() for m in masks) - last)

    budget.spend()  # the first step, a branch: nothing is forced before it
    # one batch of one assignment, of nothing
    batches = iter([([(None,)] * len(plan), [0])])
    parent = None  # the branch step whose survivors the next branch takes
    for j, (_, forced, _, _) in enumerate(plan):
        if forced is None:
            batches = sweep(j, parent, batches)
            parent = j
    for columns, (nodes,) in batches:
        # the last branch hands on one survivor at a time
        budget.spend(nodes)
        codes = [column[0] for column in columns]
        return () if parent is None else tuple(recheck(parent, codes, order[:parent + 1]))
    return None


def _counted_lanes(masks):
    """Each set lane of masks[-1], ascending, with the number of set bits of
    all masks at lanes up to it.  The masks are nested, each inside the one
    before, so the i-th lane counts i in each mask, i * len(masks) in all,
    plus the lanes below it that a later step cut: those of m ^ masks[-1],
    once for each mask m that holds them.  When no step cut a lane the count
    is i * len(masks) alone; otherwise each distinct cut is read between one
    lane and the next off its bytes, so the cuts cost one pass over them."""
    last, depth = masks[-1], len(masks)
    cuts = collections.Counter(m ^ last for m in masks if m != last)
    if not cuts:
        return zip(rel.set_lanes(last), itertools.count(depth, depth))
    size = (masks[0].bit_length() + 7) >> 3
    data = [(cut.to_bytes(size, "little"), weight) for cut, weight in cuts.items()]

    def counted():
        count = start = 0
        for lane in rel.set_lanes(last):
            # the lane itself is in no cut: the cut lanes below it count
            low, high, shift = start >> 3, (lane + 7) >> 3, start & 7
            keep = (1 << (lane - start)) - 1
            count += depth
            for bits, weight in data:
                count += weight * (int.from_bytes(bits[low:high], "little") >> shift
                                   & keep).bit_count()
            yield lane, count
            start = lane + 1

    return counted()
