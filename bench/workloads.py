"""The four benchmark workloads and the known answers their verdicts must match.

A workload is built from the benchmark seed (input generation plus warming
the lazy caches it relies on; together with the first pass's items that is
the measured set-up) and then offers a list of items for each pass.  Each item returns ``(verdict, right)``:
``verdict`` is a short deterministic description of what the program
answered, ``right`` whether it equals the known answer.  Known answers never
come from the code under test: they follow by construction (identity
interpretations of closed relation families, chains unbalanced in one atom),
from a theorem (soundness), or from data frozen by the acceptance suite
(``tests/data/cond34_ledger.json``, the Lambek fixture, A8's probe verdicts).

Size limits of generated items, fixed up front:

* ``concrete``: the 50 generator draws of the A4 recipe (bases 1..3, 1-3
  random relations each), closure cap 512 relations (the largest family has
  431 members).  The seed and the pass number relabel the base points of every
  draw and shuffle its generators; they do not redraw.  Fresh draws make per-item cost vary
  with standard deviation 2.6x the mean (measured on 300 draws), so a run's
  throughput would mostly measure which draws the seed happened to pick.
* ``represent``: six relation families with closure at most 64 members and
  quantales of 16-50 elements, relabeled the same way.
* ``search``: chains of length 4..7 whose atom names come from the seed.

``pass_s`` is the time one pass took on the nominal host (hostspeed.py) when
the benchmark was added.  A run makes ``ceil(--seconds / pass_s)`` passes; the
value stays fixed, so that every commit measures the same samples.
"""

from __future__ import annotations

import ast
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

NODE_BUDGET = 5_000_000
PROVER_BUDGET = 3_000_000
COUNTER_BUDGET = 10_000_000
CONCRETE_CLOSURE_CAP = 512
REPRESENT_CLOSURE_CAP = 64
CLI_TIMEOUT_S = 60

CONDITIONS = ("order-iff", "composition", "left-residual", "right-residual")

C2_TEXT = "elements: a b\nleq: a<=b\ncomp: a;a=a a;b=a b;a=a b;b=a\n"
# an antichain whose products are all a: a\a has candidates {a, b} and no maximum
NO_RESIDUAL_TEXT = "elements: a b\nleq:\ncomp: a;a=a a;b=a b;a=a b;b=a\n"

# generator families for the generated part of ``represent``, with the size of
# the quantale the default pipeline builds for them (none is unitalized).  Three
# share the largest size so that the pooled tail falls inside one size class
# rather than on the edge between two.
REPRESENT_FAMILIES = (
    (2, ((2, 1),)),                   # |Q| = 16
    (3, ((7, 0, 2),)),                # |Q| = 20
    (3, ((4, 0, 1),)),                # |Q| = 32
    (3, ((0, 7, 1), (1, 1, 7))),      # |Q| = 50
    (3, ((3, 1, 3),)),                # |Q| = 50
    (3, ((6, 4, 6),)),                # |Q| = 50
)

CHAIN_LENGTHS = (4, 5, 6, 7)


class ItemFailed(Exception):
    """The program did not reach a verdict (traceback, undocumented exit code)."""


# ---------------------------------------------------------------------------
# independent relational semantics (pair sets), used to re-check witnesses


def pair_set(r) -> set:
    n = len(r)
    return {(x, y) for x, row in enumerate(r) for y in range(n) if row >> y & 1}


def compose_pairs(p: set, q: set) -> set:
    return {(x, z) for x, y in p for y2, z in q if y == y2}


def refutes_commutation(p: set, q: set) -> bool:
    """Whether valuations p, q (pair sets) falsify p*q |- q*p: p;q is not inside q;p."""
    return not compose_pairs(p, q) <= compose_pairs(q, p)


def sp_model_holds(S, interp) -> bool:
    """Order, composition and join-as-union for a join/composition reduct."""
    rels = [pair_set(r) for r in interp.relations]
    n = len(rels)
    for a in range(n):
        for b in range(n):
            if (S.join[a][b] == b) != (rels[a] <= rels[b]):
                return False
            if compose_pairs(rels[a], rels[b]) != rels[S.comp[a][b]]:
                return False
            if rels[a] | rels[b] != rels[S.join[a][b]]:
                return False
    return True


def relabel(r, perm) -> tuple:
    """Move the pair (x, y) to (perm[x], perm[y])."""
    rows = [0] * len(r)
    for x, y in pair_set(r):
        rows[perm[x]] |= 1 << perm[y]
    return tuple(rows)


def pass_rng(seed: int, pass_no: int) -> random.Random:
    """Each pass relabels afresh, so a run averages over several labelings."""
    return random.Random(f"{seed}/{pass_no}")


def relabeled_family(rng: random.Random, base: int, gens) -> list:
    perm = list(range(base))
    rng.shuffle(perm)
    out = [relabel(g, perm) for g in gens]
    rng.shuffle(out)
    return out


def a4_draw(i: int) -> tuple[int, list]:
    """The generator draw generate_concrete makes for A4's seed i."""
    base = 1 + i % 3
    rng = random.Random(i)
    count = rng.randint(1, 3)
    gens = [tuple(rng.randrange(1 << base) for _ in range(base)) for _ in range(count)]
    return base, gens


def condition_bits(report) -> str:
    status = {c.name: c.passed for c in report.conditions}
    return "".join("1" if status[name] else "0" for name in CONDITIONS)


# ---------------------------------------------------------------------------
# workloads


class Concrete:
    """A4 recipe: close random generators, check the identity interpretation."""

    pass_s = 16.0

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def items(self, pass_no: int) -> list:
        from resq import algebra, verifier

        rng = pass_rng(self.seed, pass_no)
        items = []
        for i in range(50):
            base, gens = a4_draw(i)
            gens = relabeled_family(rng, base, gens)

            def run(base=base, gens=gens):
                A, interp = algebra.generate_concrete(
                    base, generators=gens, max_relations=CONCRETE_CLOSURE_CAP
                )
                bits = condition_bits(verifier.check_representation(A, interp))
                return f"n={A.n} {bits}", bits == "1111"

            items.append((f"a4-{i}", run))
        return items


class Represent:
    """Completion -> relational model -> four-condition check."""

    pass_s = 4.7

    def __init__(self, root: Path, seed: int):
        from resq import algebra

        self.seed = seed
        ledger = json.loads((root / "tests" / "data" / "cond34_ledger.json").read_text())
        self.ledger = []
        for text, status in ledger.items():
            # serialize() names direct-product elements like e0.e0, which
            # parse_algebra rejects (its output does not round-trip)
            A = algebra.parse_algebra(text.replace(".", "_"))
            if not algebra.validate(A).valid:
                raise ValueError("a ledger algebra is not a residuated semigroup")
            self.ledger.append((A, (status["left-residual"], status["right-residual"])))

    def items(self, pass_no: int) -> list:
        from resq import algebra, relrep, verifier

        rng = pass_rng(self.seed, pass_no)
        generated = []
        for base, gens in REPRESENT_FAMILIES:
            A, _ = algebra.generate_concrete(
                base,
                generators=relabeled_family(rng, base, gens),
                max_relations=REPRESENT_CLOSURE_CAP,
            )
            generated.append((A, None))

        items = []
        for index, (A, expected) in enumerate(self.ledger + generated):

            def run(A=A, expected=expected):
                result = relrep.represent_pipeline(A)
                report = verifier.check_representation(A, result.interpretation)
                bits = condition_bits(report)
                right = bits[:2] == "11"
                if expected is not None:
                    right = right and (bits[2] == "1", bits[3] == "1") == expected
                verdict = (
                    f"q={result.quantale.size} base={result.interpretation.base_size} "
                    f"u={int(result.unitalized)} {bits}"
                )
                return verdict, right

            kind = "ledger" if expected is not None else "generated"
            items.append((f"{kind}-{index}", run))
        return items


def lambek_fixture(root: Path) -> tuple[list, list]:
    """DERIVABLE / UNDERIVABLE from tests/test_lambek.py, read without importing it."""
    tree = ast.parse((root / "tests" / "test_lambek.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("DERIVABLE", "UNDERIVABLE"):
                found[target.id] = ast.literal_eval(node.value)
    return found["DERIVABLE"], found["UNDERIVABLE"]


def atom_names(rng: random.Random, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
        if name not in names:
            names.append(name)
    return names


def describe(outcome) -> str:
    base = getattr(outcome, "base_size", None)
    if base is not None:
        return f"found base={base}"
    return f"exhausted max_base={outcome.max_base}"


class Search:
    """Bounded decision procedures with settled answers."""

    pass_s = 3.5

    def __init__(self, root: Path, seed: int):
        from resq import algebra, lambek, pointalg, verifier
        from resq import relations as rel

        self._items = []
        c2 = algebra.parse_algebra(C2_TEXT)

        def c2_search():
            budget = verifier.NodeBudget(NODE_BUDGET)
            outcome = verifier.search_representation(c2, 4, budget=budget)
            verdict = describe(outcome)
            return verdict, verdict == "exhausted max_base=4"

        self._items.append(("c2-base4", c2_search))

        P = pointalg.build_point_algebra()
        for label, gens, expected_base in (
            ("<,>", [pointalg.ATOM_LT, pointalg.ATOM_GT], 3),
            ("<,=", [pointalg.ATOM_LT, pointalg.ATOM_EQ], 2),
        ):
            S = pointalg.reduct(P, gens)

            def probe(S=S, expected_base=expected_base):
                outcome, _stats = pointalg.frp_probe(S, 3, node_budget=NODE_BUDGET)
                verdict = describe(outcome)
                right = verdict == f"found base={expected_base}" and sp_model_holds(S, outcome)
                return verdict, right

            self._items.append((f"probe {label}", probe))

        derivable, underivable = lambek_fixture(root)
        for text in derivable:
            s = lambek.parse_sequent(text)
            if len(lambek.sequent_atoms(s)) > 2:
                continue

            def exhausted(s=s):
                outcome = lambek.countermodel_search(s, max_base=3, node_budget=COUNTER_BUDGET)
                verdict = describe(outcome)
                # soundness: a derivable sequent holds in every relational model
                return verdict, verdict == "exhausted max_base=3"

            self._items.append((f"counter {text}", exhausted))

        commutation = lambek.parse_sequent("p*q |- q*p")

        def refute():
            outcome = lambek.countermodel_search(commutation, max_base=2, node_budget=COUNTER_BUDGET)
            verdict = describe(outcome)
            value = {name: pair_set(r) for name, r in getattr(outcome, "valuation", ())}
            right = verdict.startswith("found") and refutes_commutation(value["p"], value["q"])
            return verdict, right

        self._items.append(("counter p*q |- q*p", refute))

        sequents = [(text, True) for text in derivable] + [(text, False) for text in underivable]
        rng = random.Random(seed)
        for k in CHAIN_LENGTHS:
            a = atom_names(rng, k + 1)
            # every (a_i/a_{i+1})*a_{i+1} counts +1 for a_i only, while the
            # succedent counts a_k once: unbalanced, hence underivable
            unbalanced = ", ".join(f"({a[i]}/{a[i + 1]})*{a[i + 1]}" for i in range(k))
            sequents.append((f"{unbalanced} |- {a[k]}*{a[0]}", False))
            # composition of divisions: derivable by k-1 l-over steps and r-over
            cancel = ", ".join(f"{a[i]}/{a[i + 1]}" for i in range(k))
            sequents.append((f"{cancel} |- {a[0]}/{a[k]}", True))
        for text, expected in sequents:
            s = lambek.parse_sequent(text)

            def prove(s=s, expected=expected):
                verdict = lambek.derivable(s, node_budget=PROVER_BUDGET)
                return f"derivable={int(verdict)}", verdict == expected

            self._items.append((f"prove {text}", prove))

        for k in range(1, 5):
            rel.canonical_relations(k)

    def items(self, pass_no: int) -> list:
        return self._items


class Cli:
    """Each subcommand as a subprocess, one at a time, on files written here."""

    pass_s = 3.1

    def __init__(self, root: Path, seed: int):
        import resq.cli  # noqa: F401  (compiles the package once, as users have it)

        self.root = root
        self.workdir = root / ".bench_tmp" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        c2 = self._write("c2.alg", C2_TEXT)
        nores = self._write("nores.alg", NO_RESIDUAL_TEXT)
        model = self._write(
            "model.json", json.dumps({"base": 2, "valuation": {"p": [[0, 1]], "q": [[1, 0]]}})
        )
        dump = str(self.workdir / "c2.dump")
        missing = str(self.workdir / "missing.alg")
        budget = str(NODE_BUDGET)
        c2_status = {"order-iff": "pass", "composition": "pass",
                     "left-residual": "fail", "right-residual": "fail"}

        def statuses(p):
            return {k: p["verification"][k]["status"] for k in c2_status} == c2_status

        def refuted(p):
            value = {name: {tuple(pair) for pair in pairs} for name, pairs in p["valuation"].items()}
            return refutes_commutation(value["p"], value["q"])

        # (item, subcommand metric or None for an error case, argv, exit code(s),
        # check of the JSON payload or None when the output is an error line)
        cases = [
            ("decide", "decide", ["decide", c2], 0, lambda p: p["valid"] is True),
            ("complete", "complete", ["complete", c2], 0, lambda p: len(p["elements"]) == 2),
            ("represent", "represent", ["represent", c2, "--output", dump], 1, statuses),
            ("verify", "verify", ["verify", c2, dump], 1, statuses),
            ("search", "search", ["search", c2, "--max-base", "4", "--node-budget", budget], 1,
             lambda p: p["verdict"] == "exhausted" and p["max_base"] == 4),
            ("pointalg", "pointalg",
             ["pointalg", "--generators", "<,>", "--max-base", "3", "--node-budget", budget], 0,
             lambda p: p["verdict"] == "found" and p["base_size"] == 3),
            ("lambek prove", "lambek_prove",
             ["lambek", "prove", "p, p\\q |- q", "--node-budget", str(PROVER_BUDGET)], 0,
             lambda p: p["derivable"] is True),
            ("lambek counter", "lambek_counter",
             ["lambek", "counter", "p*q |- q*p", "--max-base", "2",
              "--node-budget", str(COUNTER_BUDGET)], 0,
             lambda p: p["verdict"] == "found" and refuted(p)),
            ("lambek eval", "lambek_eval", ["lambek", "eval", "p*q |- q*p", model], 1,
             lambda p: p["holds"] is False),
            ("missing file", None, ["decide", missing], 2, None),
            ("malformed sequent", None, ["lambek", "prove", "p |- "], 2, None),
            ("tiny budget", None, ["search", c2, "--max-base", "3", "--node-budget", "4"], 3, None),
            # no residuals exist: a documented code with a one-line message
            ("represent no residuals", None, ["represent", nores], (1, 2), None),
        ]
        self.traced = False
        self.trace_files: list[Path] = []
        self._items = [(case[0], self._runner(case)) for case in cases]
        self.metric_of = {case[0]: case[1] for case in cases if case[1] is not None}

    def items(self, pass_no: int) -> list:
        return self._items

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _runner(self, case):
        name, _metric, argv, expected, check = case
        codes = expected if isinstance(expected, tuple) else (expected,)

        def run():
            argv_full = argv + ["--format", "json"] if check is not None else argv
            if self.traced:
                out = self.workdir / f"trace-{len(self.trace_files)}.json"
                self.trace_files.append(out)
                cmd = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(out), *argv_full]
            else:
                cmd = [sys.executable, "-m", "resq.cli", *argv_full]
            proc = subprocess.run(
                cmd, cwd=self.root, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
            code = proc.returncode
            if "Traceback (most recent call last)" in proc.stderr or code not in (0, 1, 2, 3):
                raise ItemFailed(f"exit {code}, {proc.stderr.strip().splitlines()[-1:]}")
            verdict = f"exit={code}"
            if check is None:
                message = proc.stderr.strip().splitlines()
                return verdict, code in codes and len(message) == 1
            payload = json.loads(proc.stdout) if proc.stdout.strip() else None
            return verdict, code in codes and payload is not None and check(payload)

        return run

    def start_costs(self, repeats: int = 5) -> dict:
        """Median wall of a bare interpreter and of importing resq.cli, in ms."""

        def median_ms(code: str) -> float:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=self.root,
                               check=True, timeout=CLI_TIMEOUT_S)
                times.append((time.perf_counter() - t0) * 1000)
            return sorted(times)[len(times) // 2]

        start = median_ms("pass")
        return {"cli.interpreter_start_ms": start,
                "cli.import_ms": median_ms("import resq.cli") - start}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


WORKLOADS = {"concrete": Concrete, "represent": Represent, "search": Search, "cli": Cli}
