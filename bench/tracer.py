"""Outside-in tracing of resq: wrappers installed on module attributes.

Nothing under src/ is changed.  The tracer replaces public functions on the
resq modules with wrappers and puts the originals back on uninstall.  Names
re-bound by ``from ... import`` (relrep.build_quantale, pointalg.NodeBudget,
...) are patched too, with the same wrapper object, or their calls would
escape the trace.

Two wrapper kinds:

* kernel ops (compose, both residuals, subset) and ``lambek.evaluate`` only
  count calls, because they run millions of times;
* coarse functions record a span ``[name, start, end, parent, item]`` kept in
  memory.  A span's self time is its duration minus that of its child spans.

NodeBudget is replaced by a subclass that records every budget it creates, so
a span can report the nodes spent by the searches that ran inside it.  That
recorder alone (``BudgetRecorder``) is also used by untraced runs to read each
item's exact node count.
"""

from __future__ import annotations

import time
from collections import Counter

# module -> attribute -> span name
SPANS = {
    "relations": {"canonical_relations": "relations.canonical"},
    "algebra": {
        "close_relation_family": "algebra.close_relation_family",
        "algebra_of_relations": "algebra.algebra_of_relations",
        "parse_algebra": "algebra.parse_algebra",
        "validate": "algebra.validate",
    },
    "completion": {
        "closed_sets": "completion.closed_sets",
        "build_quantale": "completion.build_quantale",
        "check_quantale_laws": "completion.check_quantale_laws",
        "quantale_residuals": "completion.quantale_residuals",
        "embed": "completion.embed",
    },
    "relrep": {
        # re-bound by ``from .completion import ...``
        "build_quantale": "completion.build_quantale",
        "check_quantale_laws": "completion.check_quantale_laws",
        "embed": "completion.embed",
        "generators": "relrep.generators",
        "hat": "relrep.hat",
        "hat_isomorphism_check": "relrep.hat_isomorphism_check",
        "unitalize": "relrep.unitalize",
        "represent_pipeline": "relrep.represent_pipeline",
    },
    "verifier": {
        "check_representation": "verifier.check_representation",
        "search_representation": "verifier.search",
    },
    "pointalg": {
        # re-bound by ``from .verifier import ...``
        "search_representation": "verifier.search",
        "build_point_algebra": "pointalg.build_point_algebra",
        "frp_probe": "pointalg.frp_probe",
    },
    "lambek": {
        "prove": "lambek.prove",
        "countermodel_search": "lambek.counter",
    },
}

KERNEL = {
    "rel_compose": "relations.compose.calls",
    "rel_lres": "relations.lres.calls",
    "rel_rres": "relations.rres.calls",
    "rel_subset": "relations.subset.calls",
}
CLOSURE_OPS = ("relations.compose.calls", "relations.lres.calls", "relations.rres.calls")

BUDGET_MODULES = ("verifier", "pointalg", "lambek")

# spans whose nodes are reported: span name -> counter name
NODE_COUNTERS = {
    "verifier.search": "verifier.search.nodes",
    "pointalg.frp_probe": "pointalg.frp_probe.nodes",
    "lambek.prove": "lambek.prove.nodes",
    "lambek.counter": "lambek.counter.models",
}


def _modules():
    from resq import algebra, completion, lambek, pointalg, relations, relrep, verifier

    return {
        "relations": relations,
        "algebra": algebra,
        "completion": completion,
        "relrep": relrep,
        "verifier": verifier,
        "pointalg": pointalg,
        "lambek": lambek,
    }


class BudgetRecorder:
    """Swap NodeBudget for a subclass that keeps every instance it creates."""

    def __init__(self):
        self.budgets: list = []
        self._saved: list = []

    def install(self) -> None:
        mods = _modules()
        base = mods["verifier"].NodeBudget
        created = self.budgets

        class RecordingBudget(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        for name in BUDGET_MODULES:
            module = mods[name]
            if getattr(module, "NodeBudget", None) is base:
                self._saved.append((module, "NodeBudget", base))
                module.NodeBudget = RecordingBudget

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def used_since(self, mark: int) -> int:
        return sum(b.used for b in self.budgets[mark:])


class Tracer:
    """Span and counter recording around the public functions of resq."""

    def __init__(self, budgets: BudgetRecorder):
        self.budgets = budgets
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = None
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = _modules()
        wrapped: dict[int, object] = {}
        for mod_name, attrs in SPANS.items():
            module = mods[mod_name]
            for attr, span in attrs.items():
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._span_wrapper(original, span)
                self._patch(module, attr, wrapped[id(original)])
        relations = mods["relations"]
        for attr, key in KERNEL.items():
            if hasattr(relations, attr):
                self._patch(relations, attr, self._counter(getattr(relations, attr), key))
        lambek = mods["lambek"]
        if hasattr(lambek, "evaluate"):
            self._patch(lambek, "evaluate", self._counter(lambek.evaluate, "lambek.evaluate.calls"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _counter(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, name):
        spans, stack, counts, budgets = self.spans, self.stack, self.counts, self.budgets
        clock = time.perf_counter
        node_key = NODE_COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            mark = len(budgets.budgets)
            explicit = kwargs.get("budget")
            used_before = explicit.used if explicit is not None else 0
            kernel_before = sum(counts[k] for k in CLOSURE_OPS)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans[index][2] = clock()
                stack.pop()
                if node_key is not None:
                    nodes = budgets.used_since(mark)
                    if explicit is not None:
                        nodes += explicit.used - used_before
                    counts[node_key] += nodes
                if result is not None:
                    first = args[0] if args else next(iter(kwargs.values()), None)
                    self._record_result(name, first, result, kernel_before)

        traced.__wrapped__ = fn
        return traced

    def _record_result(self, name, first, result, kernel_before) -> None:
        """Counters read off a finished call; ``first`` is its first argument."""
        counts = self.counts
        if name == "relrep.hat":
            counts["relrep.hat.calls"] += 1
        elif name == "algebra.close_relation_family":
            seeds = len({tuple(g) for g in first}) or 1
            counts["algebra.closure.members"] += len(result)
            counts["algebra.closure.new_members"] += len(result) - seeds
            counts["algebra.closure.kernel_calls"] += (
                sum(counts[k] for k in CLOSURE_OPS) - kernel_before
            )
        elif name == "completion.closed_sets":
            counts["completion.closed_sets.count"] += len(result)
        elif name == "completion.build_quantale":
            counts["completion.quantale.size"] += result.size
        elif name == "relrep.unitalize":
            counts["relrep.unitalize.fired"] += result is not first
        elif name == "relrep.represent_pipeline":
            counts["relrep.base.size"] += result.interpretation.base_size

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Counters plus total and self seconds per span name (JSON-ready)."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _item in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for index, (name, start, end, _parent, _item) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return {"counts": dict(self.counts), "total_s": dict(total), "self_s": dict(own)}

    def span_records(self) -> list:
        return [list(s) for s in self.spans]


def merge(summaries) -> dict:
    """Add up summaries from several traced processes."""
    out = {"counts": Counter(), "total_s": Counter(), "self_s": Counter()}
    for summary in summaries:
        for key in out:
            out[key].update(summary.get(key, {}))
    return {key: dict(value) for key, value in out.items()}
