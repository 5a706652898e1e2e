"""Command-line interface.

Exit codes are uniform across subcommands: 0 success / all conditions pass,
1 semantic violation or an exhausted search, 2 input error, 3 resource limit
(node budget or recursion depth).  Every subcommand renders the same payload
as text or JSON (--format); errors are one line on stderr.
"""

from __future__ import annotations

import json
import sys

import click

from . import algebra, completion, lambek, pointalg, relrep, verifier
from . import relations as rel
from .errors import (
    NoResidualError,
    ParseError,
    ResidualMismatchError,
    ResourceLimitError,
    ResqError,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(payload: dict, fmt: str, render) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in render(payload):
            click.echo(line)


def _fail_input(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _fail_resource(exc: ResourceLimitError) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_RESOURCE)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        _fail_input(f"no such file: {path}")
    except OSError as exc:
        _fail_input(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError:
        _fail_input(f"{path} is not UTF-8 text")


def _load_algebra(path: str) -> algebra.FiniteResiduatedSemigroup:
    text = _read_text(path)
    try:
        return algebra.parse_algebra(text)
    except NoResidualError as exc:
        click.echo(f"error: not a residuated semigroup: {exc}; run decide for details", err=True)
        sys.exit(EXIT_VIOLATION)
    except ParseError as exc:
        _fail_input(str(exc))


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True
)
node_budget_option = click.option(
    "--node-budget",
    type=click.IntRange(min=1),
    envvar="RESQ_NODE_BUDGET",
    default=None,
    help="Search node limit; defaults to RESQ_NODE_BUDGET when set.",
)


@click.group()
def main() -> None:
    """Workbench for finite residuated semigroups and their relational models."""


@main.command()
@click.argument("path", type=click.Path())
@format_option
def decide(path: str, fmt: str) -> None:
    """Decide whether a file denotes a residuated semigroup (hence representable)."""
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
    except ParseError as exc:
        _fail_input(str(exc))
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
    A = _load_algebra(path)
    report = algebra.validate(A)
    if not report.valid:
        click.echo("error: not a residuated semigroup; run decide for details", err=True)
        sys.exit(EXIT_VIOLATION)
    Q = completion.build_quantale(A)
    payload = {"command": "complete", **completion.quantale_payload(Q)}
    _emit(payload, fmt, lambda p: completion.format_quantale(Q).splitlines())
    sys.exit(EXIT_OK)


unitalize_option = click.option(
    "--unitalize",
    type=click.Choice(["on", "off", "auto"]),
    default="auto",
    show_default=True,
)
generators_option = click.option(
    "--generators",
    "generators_mode",
    type=click.Choice(["all", "join-irreducible"]),
    default="all",
    show_default=True,
)


@main.command()
@click.argument("path", type=click.Path())
@unitalize_option
@generators_option
@click.option(
    "--output",
    "output_path",
    type=click.Path(),
    default=None,
    help="Also write the bare dump (the verify subcommand's input) to this file.",
)
@format_option
def represent(path: str, unitalize: str, generators_mode: str, output_path: str | None,
              fmt: str) -> None:
    """Build a relational representation, verify it, and dump it."""
    A = _load_algebra(path)
    report = algebra.validate(A)
    if not report.valid:
        click.echo("error: not a residuated semigroup; run decide for details", err=True)
        sys.exit(EXIT_VIOLATION)
    result = relrep.represent_pipeline(A, generators_mode=generators_mode, unitalize_mode=unitalize)
    interp = result.interpretation
    check = verifier.check_representation(A, interp)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(relrep.format_interpretation(interp))
    payload = {
        "command": "represent",
        "options": {"unitalize": unitalize, "generators": generators_mode},
        "unitalized": result.unitalized,
        "base_size": interp.base_size,
        **relrep.interpretation_payload(interp),
        "verification": check.payload(A.names, interp.base_labels),
        "union_transitive": verifier.check_union_transitive(interp),
    }
    _emit(payload, fmt, _render_represent)
    sys.exit(EXIT_OK if check.all_pass else EXIT_VIOLATION)


def _render_represent(payload: dict):
    yield from relrep.format_interpretation_lines(payload)
    yield from _render_verification(payload["verification"])
    yield f"union transitive: {str(payload['union_transitive']).lower()}"


def _render_verification(verification: dict):
    for name, entry in verification.items():
        if name == "all_pass":
            continue
        line = f"{name}: {entry['status']}"
        if "witness" in entry:
            w = entry["witness"]
            line += f" witness elements ({', '.join(w['elements'])})"
            if "points" in w:
                line += f" points ({', '.join(w['points'])})"
        yield line
    yield f"all conditions pass: {str(verification['all_pass']).lower()}"


@main.command()
@click.argument("algebra_path", type=click.Path())
@click.argument("dump_path", type=click.Path())
@format_option
def verify(algebra_path: str, dump_path: str, fmt: str) -> None:
    """Check a representation dump against the four defining conditions."""
    A = _load_algebra(algebra_path)
    text = _read_text(dump_path)
    try:
        interp = relrep.parse_interpretation(text, A)
    except (ResqError, ValueError, KeyError) as exc:
        _fail_input(str(exc))
    check = verifier.check_representation(A, interp)
    payload = {
        "command": "verify",
        "verification": check.payload(A.names, interp.base_labels),
        "union_transitive": verifier.check_union_transitive(interp),
    }
    _emit(payload, fmt, lambda p: list(_render_verification(p["verification"]))
          + [f"union transitive: {str(p['union_transitive']).lower()}"])
    sys.exit(EXIT_OK if check.all_pass else EXIT_VIOLATION)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--max-base", type=click.IntRange(min=1), default=3, show_default=True)
@node_budget_option
@click.option("--no-symmetry", is_flag=True, help="Disable base-point symmetry breaking.")
@format_option
def search(path: str, max_base: int, node_budget: int | None, no_symmetry: bool,
           fmt: str) -> None:
    """Brute-force search for a representation over a bounded base."""
    A = _load_algebra(path)
    try:
        outcome = verifier.search_representation(
            A, max_base, node_budget=node_budget, symmetry=not no_symmetry
        )
    except ResourceLimitError as exc:
        _fail_resource(exc)
    if isinstance(outcome, verifier.Exhausted):
        payload = {"command": "search", "verdict": "exhausted", "max_base": outcome.max_base}
        _emit(payload, fmt, lambda p: [f"exhausted: no representation over any base <= {max_base}"])
        sys.exit(EXIT_VIOLATION)
    payload = {
        "command": "search",
        "verdict": "found",
        "base_size": outcome.base_size,
        **relrep.interpretation_payload(outcome),
    }
    _emit(payload, fmt, _render_found)
    sys.exit(EXIT_OK)


def _render_found(payload: dict):
    yield f"found: base size {payload['base_size']}"
    yield from relrep.format_interpretation_lines(payload)


@main.command(name="pointalg")
@click.option("--generators", "generator_text", default="<,>", show_default=True,
              help="Comma-separated elements; atoms <=>, plus 'full' and 'neq'.")
@click.option("--max-base", type=click.IntRange(min=1), default=3, show_default=True)
@node_budget_option
@format_option
def pointalg_cmd(generator_text: str, max_base: int, node_budget: int | None, fmt: str) -> None:
    """Close a point-algebra reduct and probe it for a bounded-base representation."""
    try:
        masks = [pointalg.parse_element(tok) for tok in generator_text.split(",") if tok.strip()]
        if not masks:
            raise ValueError("no generators given")
    except ValueError as exc:
        _fail_input(str(exc))
    P = pointalg.build_point_algebra()
    S = pointalg.reduct(P, masks)
    try:
        result, stats = pointalg.frp_probe(S, max_base, node_budget=node_budget)
    except ResourceLimitError as exc:
        _fail_resource(exc)
    payload = {
        "command": "pointalg",
        "generators": [pointalg.render_element(m) for m in masks],
        "carrier": list(S.names),
        "stats": {"nodes": stats.nodes, "seconds": round(stats.seconds, 6)},
    }
    if isinstance(result, verifier.Exhausted):
        payload["verdict"] = "exhausted"
        payload["max_base"] = result.max_base
        _emit(payload, fmt, _render_pointalg)
        sys.exit(EXIT_VIOLATION)
    payload["verdict"] = "found"
    payload["base_size"] = result.base_size
    payload.update(relrep.interpretation_payload(result))
    _emit(payload, fmt, _render_pointalg)
    sys.exit(EXIT_OK)


def _render_pointalg(payload: dict):
    yield "carrier: " + " ".join(payload["carrier"])
    yield f"verdict: {payload['verdict']}"
    if payload["verdict"] == "found":
        yield from relrep.format_interpretation_lines(payload)
    yield f"nodes: {payload['stats']['nodes']}"


@main.group(name="lambek")
def lambek_group() -> None:
    """Lambek-calculus tools."""


def _parse_sequent(text: str) -> lambek.Sequent:
    try:
        return lambek.parse_sequent(text)
    except (ParseError, ValueError) as exc:
        _fail_input(str(exc))


@lambek_group.command()
@click.argument("sequent_text")
@node_budget_option
@click.option("--trace", is_flag=True, help="Include the derivation tree.")
@format_option
def prove(sequent_text: str, node_budget: int | None, trace: bool, fmt: str) -> None:
    """Decide derivability of a sequent in the cut-free calculus."""
    s = _parse_sequent(sequent_text)
    try:
        proof = lambek.prove(s, node_budget=node_budget)
    except ResourceLimitError as exc:
        _fail_resource(exc)
    payload = {
        "command": "lambek-prove",
        "sequent": lambek.format_sequent(s),
        "derivable": proof is not None,
    }
    if trace and proof is not None:
        payload["proof"] = _proof_payload(proof)
    _emit(payload, fmt, lambda p: [f"derivable: {str(p['derivable']).lower()}"]
          + (_proof_lines(p["proof"], 0) if "proof" in p else []))
    sys.exit(EXIT_OK if proof is not None else EXIT_VIOLATION)


def _proof_payload(node: lambek.ProofNode) -> dict:
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
@click.option("--max-atom-relations", type=click.IntRange(min=1), default=None)
@node_budget_option
@format_option
def counter(sequent_text: str, max_base: int, max_atom_relations: int | None,
            node_budget: int | None, fmt: str) -> None:
    """Search for a finite relational countermodel."""
    s = _parse_sequent(sequent_text)
    try:
        result = lambek.countermodel_search(
            s, max_base=max_base, max_atom_relations=max_atom_relations, node_budget=node_budget
        )
    except ResourceLimitError as exc:
        _fail_resource(exc)
    payload = {"command": "lambek-counter", "sequent": lambek.format_sequent(s)}
    if isinstance(result, verifier.Exhausted):
        payload["verdict"] = "exhausted"
        payload["max_base"] = result.max_base
        _emit(payload, fmt, lambda p: [f"exhausted: no countermodel over any base <= {max_base}"])
        sys.exit(EXIT_VIOLATION)
    payload["verdict"] = "found"
    payload["base"] = result.base_size
    payload["valuation"] = {
        name: [list(p) for p in rel.relation_pairs(r)] for name, r in result.valuation
    }
    _emit(payload, fmt, _render_counter)
    sys.exit(EXIT_OK)


def _render_counter(payload: dict):
    yield f"countermodel found at base {payload['base']}"
    for name in sorted(payload["valuation"]):
        pairs = payload["valuation"][name]
        yield f"v({name}):" + "".join(f" ({x},{y})" for x, y in pairs)


@lambek_group.command(name="eval")
@click.argument("sequent_text")
@click.argument("model_path", type=click.Path())
@format_option
def eval_cmd(sequent_text: str, model_path: str, fmt: str) -> None:
    """Evaluate a sequent in a model given as JSON: {"base": n, "valuation": {...}}."""
    s = _parse_sequent(sequent_text)
    text = _read_text(model_path)
    try:
        raw = json.loads(text)
        base = int(raw["base"])
        valuation = tuple(
            (name, rel.relation_from_pairs(base, pairs))
            for name, pairs in sorted(raw["valuation"].items())
        )
        model = lambek.RelationalModel(base_size=base, valuation=valuation)
        holds = lambek.evaluate(s, model)
    except ResourceLimitError as exc:
        _fail_resource(exc)
    except (KeyError, ValueError, TypeError, json.JSONDecodeError, ResqError) as exc:
        _fail_input(str(exc))
    payload = {"command": "lambek-eval", "sequent": lambek.format_sequent(s), "holds": holds}
    _emit(payload, fmt, lambda p: [f"holds: {str(p['holds']).lower()}"])
    sys.exit(EXIT_OK if holds else EXIT_VIOLATION)


if __name__ == "__main__":
    main()
