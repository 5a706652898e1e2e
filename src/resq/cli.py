"""Command-line interface.

Each deciding command (decide, represent, verify, search, pointalg and the
lambek prove, counter and eval subcommands) ends by writing one Verdict: the
verdict, the semantics it is a claim about ("square", or none for decide and
lambek prove, which say nothing about relations), its evidence and its
machine-independent stats.  As JSON it is one object with the keys command,
verdict, semantics and stats beside the evidence's own; as text it is a
``verdict:`` line, a ``semantics:`` line, the evidence lines and one
``key: value`` line per stats entry.  The exit code is read off the verdict
(EXIT_OF_VERDICT): 0 when the claim holds, 1 when it fails or a bounded search
is exhausted.  The other exit codes are 2 input error, 3 resource limit (node
budget or recursion depth) and 4 internal error.  Subcommands raise; the
group's invoke is the one place that maps an exception to its exit code and a
single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, NamedTuple, NoReturn

import click
from click.core import ParameterSource

# completion, relrep, verifier, lambek and pointalg are imported inside the
# commands and helpers that use them, so a run loads only what it runs
from . import algebra
from . import relations as rel
from .errors import (
    DimensionMismatch,
    MissingAtomError,
    NoResidualError,
    NotResiduatedError,
    ParseError,
    ResidualMismatchError,
    ResourceLimitError,
)

if TYPE_CHECKING:
    from . import lambek

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# an exhausted search is a bounded claim, told apart from a refutation by its
# verdict, not by its exit code
EXIT_OF_VERDICT = {
    **dict.fromkeys(("valid", "represented", "found", "derivable", "holds"), EXIT_OK),
    **dict.fromkeys(("invalid", "failing", "exhausted", "underivable", "fails"), EXIT_VIOLATION),
}


def _emit(payload: dict, fmt: str, lines) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            click.echo(line)


class Verdict(NamedTuple):
    """What a deciding command found, with the JSON fields of its evidence
    and the text lines that carry them."""

    command: str
    verdict: str
    semantics: str | None
    evidence: dict
    lines: list[str]
    stats: dict

    def payload(self) -> dict:
        return {"command": self.command, "verdict": self.verdict, "semantics": self.semantics,
                "stats": self.stats, **self.evidence}

    def write(self, fmt: str) -> NoReturn:
        """Print the verdict in the format and exit with its code."""
        _emit(self.payload(), fmt, [f"verdict: {self.verdict}",
                                    f"semantics: {self.semantics or 'none'}", *self.lines,
                                    *(f"{key}: {value}" for key, value in self.stats.items())])
        sys.exit(EXIT_OF_VERDICT[self.verdict])


class _ErrorContract(click.Group):
    """A group whose invoke ends every subcommand error with its documented
    exit code and one ``error: ...`` line on stderr, never a traceback.

    click's own endings (--help, usage errors, Abort) and a closed output
    pipe, which click handles itself, pass through unchanged.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort, BrokenPipeError):
            raise
        except NotResiduatedError as exc:
            code = EXIT_VIOLATION
            message = f"not a residuated semigroup: {exc}; run decide for details"
        except (ParseError, DimensionMismatch, MissingAtomError, OSError) as exc:
            code, message = EXIT_INPUT, str(exc)
        except ResourceLimitError as exc:
            code, message = EXIT_RESOURCE, str(exc)
        except RecursionError:
            # products chain without parentheses, so only a formula gets this deep
            code = EXIT_RESOURCE
            message = f"formula too deep for the recursion limit (limit {sys.getrecursionlimit()})"
        except Exception as exc:
            code, message = EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


def _read_text(path: str) -> str:
    """The text of the file at path, without a leading UTF-8 byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None


def _load_algebra(path: str) -> algebra.FiniteResiduatedSemigroup:
    return algebra.parse_algebra(_read_text(path))


def _load_valid_algebra(path: str) -> algebra.FiniteResiduatedSemigroup:
    """The algebra of the file; raises NotResiduatedError naming the first
    failed axiom and its witness unless it validates."""
    A = _load_algebra(path)
    failures = algebra.validate(A).failures
    if failures:
        raise NotResiduatedError(failures[0].message(A.names))
    return A


class _EnvNamingOption(click.Option):
    """An option whose usage error names its environment variable when the
    bad value was read from there."""

    def handle_parse_result(self, ctx, opts, args):
        try:
            return super().handle_parse_result(ctx, opts, args)
        except click.BadParameter as exc:
            _, source = self.consume_value(ctx, opts)
            if source is ParameterSource.ENVIRONMENT:
                exc.param_hint = f"{self.get_error_hint(ctx)} (from {self.envvar})"
            raise


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
node_budget_option = click.option(
    "--node-budget",
    cls=_EnvNamingOption,
    type=click.IntRange(min=1),
    envvar="RESQ_NODE_BUDGET",
    default=None,
    help="Search node limit; defaults to RESQ_NODE_BUDGET when set.",
)


@click.group(cls=_ErrorContract)
def main() -> None:
    """Workbench for finite residuated semigroups and their relational models."""


@main.command()
@click.argument("path", type=click.Path())
@format_option
def decide(path: str, fmt: str) -> None:
    """Decide whether a file denotes a residuated semigroup."""
    text = _read_text(path)
    reason = A = None
    try:
        A = algebra.parse_algebra(text)
    except NoResidualError as exc:
        # the order/composition tables are readable but admit no residuals,
        # which is a negative decision rather than an input error
        reason = str(exc)
    except ResidualMismatchError as exc:
        # validate the structure with the residual tables as declared, so the
        # report carries a residuation-law witness
        A, reason = exc.algebra, str(exc)
    failures = [] if A is None else [
        {"axiom": axiom, "witness": [A.names[i] for i in witness]}
        for axiom, witness in algebra.validate(A).failures
    ]
    valid = reason is None and not failures
    evidence = {"valid": valid, "failures": failures}
    lines = [f"failure: {f['axiom']} witness ({', '.join(f['witness'])})" for f in failures]
    if reason is not None:
        evidence["reason"] = reason
        lines.insert(0, f"reason: {reason}")
    Verdict("decide", "valid" if valid else "invalid", None, evidence, lines, {}).write(fmt)


@main.command()
@click.argument("path", type=click.Path())
@format_option
def complete(path: str, fmt: str) -> None:
    """Print the quantale of Galois-closed subsets of the algebra."""
    from . import completion

    payload = completion.quantale_payload(completion.build_quantale(_load_valid_algebra(path)))
    _emit({"command": "complete", **payload}, fmt, completion.format_quantale_lines(payload))


@main.command()
@click.argument("path", type=click.Path())
@click.option("--unitalize", type=click.Choice(["on", "off", "auto"]), default="auto",
              show_default=True)
@click.option(
    "--output",
    "output_path",
    type=click.Path(),
    default=None,
    help="Also write the bare dump (the verify subcommand's input) to this file.",
)
@format_option
def represent(path: str, unitalize: str, output_path: str | None, fmt: str) -> None:
    """Build a relational representation, verify it, and dump it."""
    from . import relrep

    A = _load_valid_algebra(path)
    result = relrep.represent_pipeline(A, unitalize_mode=unitalize)
    interp = result.interpretation
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(rel.format_interpretation(interp))
    reason = result.unitalize_reason
    Q0 = result.base_quantale
    evidence = {
        "options": {"unitalize": unitalize},
        "unitalized": result.unitalized,
        "unitalize_reason": None if reason is None else {
            "condition": reason.name, **reason.payload(Q0.labels, Q0.labels)
        },
        "base_size": interp.base_size,
        **rel.interpretation_payload(interp),
    }
    lines = [
        f"options: unitalize={unitalize}",
        f"unitalized: {str(result.unitalized).lower()}",
        "unitalize_reason: " + ("none" if reason is None else
                                f"{reason.name} {_render_condition(evidence['unitalize_reason'])}"),
        f"base_size: {interp.base_size}",
        *rel.format_interpretation_lines(evidence),
    ]
    _check_verdict("represent", A, interp, evidence, lines, {"quantale_size": Q0.size}).write(fmt)


def _render_condition(entry: dict) -> str:
    line = entry["status"]
    if "witness" in entry:
        w = entry["witness"]
        line += f" witness elements ({', '.join(w['elements'])})"
        if "points" in w:
            line += f" points ({', '.join(w['points'])})"
    return line


def _check_verdict(command: str, A, interp, evidence: dict, lines: list[str],
                   stats: dict) -> Verdict:
    """Whether interp represents A by the four defining conditions, after the
    given evidence: one line per condition, then the union-transitivity probe."""
    from . import verifier

    check = verifier.check_representation(A, interp)
    verification = check.payload(A.names, interp.base_labels)
    union_transitive = verifier.check_union_transitive(interp)
    lines = [*lines, *(f"{name}: {_render_condition(entry)}"
                       for name, entry in verification.items() if name != "all_pass"),
             f"union transitive: {str(union_transitive).lower()}"]
    evidence = {**evidence, "verification": verification, "union_transitive": union_transitive}
    return Verdict(command, "represented" if check.valid else "failing", "square", evidence,
                   lines, stats)


@main.command()
@click.argument("algebra_path", type=click.Path())
@click.argument("dump_path", type=click.Path())
@format_option
def verify(algebra_path: str, dump_path: str, fmt: str) -> None:
    """Check a representation dump against the four defining conditions."""
    A = _load_algebra(algebra_path)
    interp = rel.parse_interpretation(_read_text(dump_path), A.names)
    _check_verdict("verify", A, interp, {}, [], {}).write(fmt)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--max-base", type=click.IntRange(min=1), default=3, show_default=True)
@node_budget_option
@format_option
def search(path: str, max_base: int, node_budget: int | None, fmt: str) -> None:
    """Bounded search for a representation over bases of size 1..max-base."""
    from . import verifier

    A = _load_valid_algebra(path)
    budget = verifier.NodeBudget(node_budget)
    outcome = verifier.search_representation(A, max_base, budget=budget)
    _search_verdict("search", outcome, budget.used, {}, []).write(fmt)


def _search_verdict(command: str, outcome, nodes: int, evidence: dict,
                    lines: list[str]) -> Verdict:
    """The outcome of a representation search after the given evidence:
    base_size and the model it found, or max_base when it is exhausted."""
    from . import verifier

    if isinstance(outcome, verifier.Exhausted):
        verdict, found = "exhausted", {"max_base": outcome.max_base}
        lines = [*lines, f"max_base: {outcome.max_base}"]
    else:
        verdict, found = "found", {"base_size": outcome.base_size,
                                   **rel.interpretation_payload(outcome)}
        lines = [*lines, f"base_size: {outcome.base_size}", *rel.format_interpretation_lines(found)]
    return Verdict(command, verdict, "square", {**evidence, **found}, lines, {"nodes": nodes})


@main.command(name="pointalg")
@click.option("--generators", "generator_text", default="<,>", show_default=True,
              help="Comma-separated elements; atoms <=>, plus 'full' and 'neq'.")
@click.option("--max-base", type=click.IntRange(min=1), default=3, show_default=True)
@node_budget_option
@format_option
def pointalg_cmd(generator_text: str, max_base: int, node_budget: int | None, fmt: str) -> None:
    """Close a point-algebra reduct and probe it for a bounded-base representation."""
    from . import pointalg

    masks = [pointalg.parse_element(tok) for tok in generator_text.split(",") if tok.strip()]
    if not masks:
        raise ParseError("no generators given")
    S = pointalg.reduct(pointalg.build_point_algebra(), masks)
    result, nodes = pointalg.frp_probe(S, max_base, node_budget=node_budget)
    generators = [pointalg.render_element(m) for m in masks]
    evidence = {"generators": generators, "carrier": list(S.names)}
    lines = ["generators: " + " ".join(generators), "carrier: " + " ".join(S.names)]
    _search_verdict("pointalg", result, nodes, evidence, lines).write(fmt)


@main.group(name="lambek")
def lambek_group() -> None:
    """Lambek-calculus tools."""


@lambek_group.command()
@click.argument("sequent_text")
@node_budget_option
@click.option("--trace", is_flag=True, help="Include the derivation tree.")
@format_option
def prove(sequent_text: str, node_budget: int | None, trace: bool, fmt: str) -> None:
    """Decide derivability of a sequent in the cut-free calculus."""
    from . import lambek

    s = lambek.parse_sequent(sequent_text)
    proof = lambek.prove(s, node_budget=node_budget, tree=trace)
    sequent = lambek.format_sequent(s)
    evidence = {"sequent": sequent, "derivable": proof is not None}
    lines = [f"sequent: {sequent}"]
    if trace and proof is not None:
        evidence["proof"] = _proof_payload(proof)
        lines += _proof_lines(evidence["proof"], 0)
    verdict = "underivable" if proof is None else "derivable"
    Verdict("lambek-prove", verdict, None, evidence, lines, {}).write(fmt)


def _proof_payload(node: lambek.ProofNode) -> dict:
    from . import lambek

    return {
        "rule": node.rule,
        "sequent": lambek.format_sequent(node.sequent),
        "premises": [_proof_payload(p) for p in node.premises],
    }


def _proof_lines(node: dict, depth: int) -> list[str]:
    lines = ["  " * depth + f"[{node['rule']}] {node['sequent']}"]
    for premise in node["premises"]:
        lines.extend(_proof_lines(premise, depth + 1))
    return lines


@lambek_group.command()
@click.argument("sequent_text")
@click.option("--max-base", type=click.IntRange(min=1), default=3, show_default=True)
@node_budget_option
@format_option
def counter(sequent_text: str, max_base: int, node_budget: int | None, fmt: str) -> None:
    """Search for a finite relational countermodel."""
    from . import lambek, verifier

    s = lambek.parse_sequent(sequent_text)
    budget = verifier.NodeBudget(node_budget, default=lambek.DEFAULT_COUNTER_BUDGET)
    result = lambek.countermodel_search(s, max_base=max_base, budget=budget)
    sequent = lambek.format_sequent(s)
    if isinstance(result, verifier.Exhausted):
        verdict, evidence = "exhausted", {"max_base": result.max_base}
        lines = [f"max_base: {result.max_base}"]
    else:
        verdict, evidence = "found", rel.model_payload(result)
        lines = rel.format_model_lines(evidence)
    Verdict("lambek-counter", verdict, "square", {"sequent": sequent, **evidence},
            [f"sequent: {sequent}", *lines], {"nodes": budget.used}).write(fmt)


@lambek_group.command(name="eval")
@click.argument("sequent_text")
@click.argument("model_path", type=click.Path())
@format_option
def eval_cmd(sequent_text: str, model_path: str, fmt: str) -> None:
    """Evaluate a sequent in a model given as JSON: {"base": n, "valuation": {...}}."""
    from . import lambek

    s = lambek.parse_sequent(sequent_text)
    holds = lambek.evaluate(s, rel.parse_model(_read_text(model_path)))
    sequent = lambek.format_sequent(s)
    Verdict("lambek-eval", "holds" if holds else "fails", "square",
            {"sequent": sequent, "holds": holds}, [f"sequent: {sequent}"], {}).write(fmt)


if __name__ == "__main__":
    main()
