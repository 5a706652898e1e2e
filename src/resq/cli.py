"""Command-line interface.

Exit codes are uniform across subcommands: 0 success / all conditions pass,
1 semantic violation or an exhausted search, 2 input error, 3 resource limit
(node budget or recursion depth), 4 internal error.  Every subcommand renders
the same payload as text or JSON (--format).  Subcommands raise; the group's
invoke is the one place that maps an exception to its exit code and a single
``error: ...`` line on stderr.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

import click
from click.core import ParameterSource

# completion, relrep, verifier, lambek and pointalg are imported inside the
# commands and renderers that use them, so a run loads only what it runs
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


def _emit(payload: dict, fmt: str, render) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in render(payload):
            click.echo(line)


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
    reason = None
    try:
        A = algebra.parse_algebra(text)
    except NoResidualError as exc:
        # the order/composition tables are readable but admit no residuals,
        # which is a negative decision rather than an input error
        payload = {"command": "decide", "valid": False, "reason": str(exc), "failures": []}
        _emit(payload, fmt, _render_decide)
        sys.exit(EXIT_VIOLATION)
    except ResidualMismatchError as exc:
        # validate the structure with the residual tables as declared, so the
        # report carries a residuation-law witness
        A = exc.algebra
        reason = str(exc)
    report = algebra.validate(A)
    valid = report.valid and reason is None
    payload = {
        "command": "decide",
        "valid": valid,
        "failures": [
            {"axiom": axiom, "witness": [A.names[i] for i in witness]}
            for axiom, witness in report.failures
        ],
    }
    if reason is not None:
        payload["reason"] = reason
    _emit(payload, fmt, _render_decide)
    sys.exit(EXIT_OK if valid else EXIT_VIOLATION)


def _render_decide(payload: dict):
    yield f"valid: {str(payload['valid']).lower()}"
    if payload.get("reason"):
        yield f"reason: {payload['reason']}"
    for failure in payload["failures"]:
        yield f"failure: {failure['axiom']} witness ({', '.join(failure['witness'])})"


@main.command()
@click.argument("path", type=click.Path())
@format_option
def complete(path: str, fmt: str) -> None:
    """Print the quantale of Galois-closed subsets of the algebra."""
    from . import completion

    A = _load_valid_algebra(path)
    Q = completion.build_quantale(A)
    payload = {"command": "complete", **completion.quantale_payload(Q)}
    _emit(payload, fmt, completion.format_quantale_lines)
    sys.exit(EXIT_OK)


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
    from . import relrep, verifier

    A = _load_valid_algebra(path)
    result = relrep.represent_pipeline(A, unitalize_mode=unitalize)
    interp = result.interpretation
    check = verifier.check_representation(A, interp)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(rel.format_interpretation(interp))
    reason = result.unitalize_reason
    Q0 = result.base_quantale
    payload = {
        "command": "represent",
        "options": {"unitalize": unitalize},
        "unitalized": result.unitalized,
        "unitalize_reason": None if reason is None else {
            "condition": reason.name, **reason.payload(Q0.labels, Q0.labels)
        },
        "base_size": interp.base_size,
        **rel.interpretation_payload(interp),
        "verification": check.payload(A.names, interp.base_labels),
        "union_transitive": verifier.check_union_transitive(interp),
    }
    _emit(payload, fmt, _render_represent)
    sys.exit(EXIT_OK if check.valid else EXIT_VIOLATION)


def _render_represent(payload: dict):
    options = payload["options"]
    yield f"options: unitalize={options['unitalize']}"
    yield f"unitalized: {str(payload['unitalized']).lower()}"
    reason = payload["unitalize_reason"]
    if reason is None:
        yield "unitalize_reason: none"
    else:
        yield f"unitalize_reason: {reason['condition']} {_render_condition(reason)}"
    yield f"base_size: {payload['base_size']}"
    yield from rel.format_interpretation_lines(payload)
    yield from _render_verification(payload)


def _render_condition(entry: dict) -> str:
    line = entry["status"]
    if "witness" in entry:
        w = entry["witness"]
        line += f" witness elements ({', '.join(w['elements'])})"
        if "points" in w:
            line += f" points ({', '.join(w['points'])})"
    return line


def _render_verification(payload: dict):
    """One line per condition, the verdict, then the union-transitivity probe."""
    verification = payload["verification"]
    for name, entry in verification.items():
        if name != "all_pass":
            yield f"{name}: {_render_condition(entry)}"
    yield f"all conditions pass: {str(verification['all_pass']).lower()}"
    yield f"union transitive: {str(payload['union_transitive']).lower()}"


@main.command()
@click.argument("algebra_path", type=click.Path())
@click.argument("dump_path", type=click.Path())
@format_option
def verify(algebra_path: str, dump_path: str, fmt: str) -> None:
    """Check a representation dump against the four defining conditions."""
    from . import verifier

    A = _load_algebra(algebra_path)
    interp = rel.parse_interpretation(_read_text(dump_path), A.names)
    check = verifier.check_representation(A, interp)
    payload = {
        "command": "verify",
        "verification": check.payload(A.names, interp.base_labels),
        "union_transitive": verifier.check_union_transitive(interp),
    }
    _emit(payload, fmt, _render_verification)
    sys.exit(EXIT_OK if check.valid else EXIT_VIOLATION)


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
    _emit({"command": "search", **_outcome_payload(outcome), "nodes": budget.used},
          fmt, _render_search)
    sys.exit(EXIT_VIOLATION if isinstance(outcome, verifier.Exhausted) else EXIT_OK)


def _render_search(payload: dict):
    """The outcome of a representation search, then the nodes it spent."""
    yield from _render_search_outcome(payload)
    yield f"nodes: {payload['nodes']}"


def _outcome_payload(outcome) -> dict:
    """The verdict of a representation search, then max_base when it is
    exhausted, else base_size and the model it found."""
    from . import verifier

    if isinstance(outcome, verifier.Exhausted):
        return {"verdict": "exhausted", "max_base": outcome.max_base}
    return {"verdict": "found", "base_size": outcome.base_size,
            **rel.interpretation_payload(outcome)}


def _render_search_outcome(payload: dict):
    """The verdict of a representation search, then base_size and the model
    when found, else max_base."""
    yield f"verdict: {payload['verdict']}"
    if payload["verdict"] == "found":
        yield f"base_size: {payload['base_size']}"
        yield from rel.format_interpretation_lines(payload)
    else:
        yield f"max_base: {payload['max_base']}"


@main.command(name="pointalg")
@click.option("--generators", "generator_text", default="<,>", show_default=True,
              help="Comma-separated elements; atoms <=>, plus 'full' and 'neq'.")
@click.option("--max-base", type=click.IntRange(min=1), default=3, show_default=True)
@node_budget_option
@format_option
def pointalg_cmd(generator_text: str, max_base: int, node_budget: int | None, fmt: str) -> None:
    """Close a point-algebra reduct and probe it for a bounded-base representation."""
    from . import pointalg, verifier

    masks = [pointalg.parse_element(tok) for tok in generator_text.split(",") if tok.strip()]
    if not masks:
        raise ParseError("no generators given")
    S = pointalg.reduct(pointalg.build_point_algebra(), masks)
    result, stats = pointalg.frp_probe(S, max_base, node_budget=node_budget)
    payload = {
        "command": "pointalg",
        "generators": [pointalg.render_element(m) for m in masks],
        "carrier": list(S.names),
        "stats": {"nodes": stats.nodes, "seconds": round(stats.seconds, 6)},
        **_outcome_payload(result),
    }
    _emit(payload, fmt, _render_pointalg)
    sys.exit(EXIT_VIOLATION if isinstance(result, verifier.Exhausted) else EXIT_OK)


def _render_pointalg(payload: dict):
    yield "generators: " + " ".join(payload["generators"])
    yield "carrier: " + " ".join(payload["carrier"])
    yield from _render_search_outcome(payload)
    yield f"nodes: {payload['stats']['nodes']}"
    yield f"seconds: {payload['stats']['seconds']}"


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
    proof = lambek.prove(s, node_budget=node_budget)
    payload = {
        "command": "lambek-prove",
        "sequent": lambek.format_sequent(s),
        "derivable": proof is not None,
    }
    if trace and proof is not None:
        payload["proof"] = _proof_payload(proof)
    _emit(payload, fmt, lambda p: [f"sequent: {p['sequent']}",
                                   f"derivable: {str(p['derivable']).lower()}"]
          + (_proof_lines(p["proof"], 0) if "proof" in p else []))
    sys.exit(EXIT_OK if proof is not None else EXIT_VIOLATION)


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
    payload = {"command": "lambek-counter", "sequent": lambek.format_sequent(s)}
    if isinstance(result, verifier.Exhausted):
        payload.update(verdict="exhausted", max_base=result.max_base)
    else:
        payload.update(verdict="found", **rel.model_payload(result))
    payload["nodes"] = budget.used
    _emit(payload, fmt, _render_counter)
    sys.exit(EXIT_VIOLATION if isinstance(result, verifier.Exhausted) else EXIT_OK)


def _render_counter(payload: dict):
    """The outcome of a countermodel search, then the nodes it spent."""
    yield f"sequent: {payload['sequent']}"
    yield f"verdict: {payload['verdict']}"
    if payload["verdict"] == "exhausted":
        yield f"max_base: {payload['max_base']}"
    else:
        yield from rel.format_model_lines(payload)
    yield f"nodes: {payload['nodes']}"


@lambek_group.command(name="eval")
@click.argument("sequent_text")
@click.argument("model_path", type=click.Path())
@format_option
def eval_cmd(sequent_text: str, model_path: str, fmt: str) -> None:
    """Evaluate a sequent in a model given as JSON: {"base": n, "valuation": {...}}."""
    from . import lambek

    s = lambek.parse_sequent(sequent_text)
    holds = lambek.evaluate(s, rel.parse_model(_read_text(model_path)))
    payload = {"command": "lambek-eval", "sequent": lambek.format_sequent(s), "holds": holds}
    _emit(payload, fmt, lambda p: [f"sequent: {p['sequent']}", f"holds: {str(p['holds']).lower()}"])
    sys.exit(EXIT_OK if holds else EXIT_VIOLATION)


if __name__ == "__main__":
    main()
