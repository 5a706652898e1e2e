import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from corpus import C2_TEXT, MALFORMED_MODELS, make_c2
import resq
from resq import lambek, relrep
from resq import relations as rel
from resq.algebra import parse_algebra
from resq.cli import main
from resq.verifier import NodeBudget, search_representation

ONE = "elements: x\nleq: x<=x\ncomp: x;x=x\n"
MUTATED_C2 = C2_TEXT + "lres: a\\a=a a\\b=b b\\a=b b\\b=b\n"  # a\\a altered to a
ANTICHAIN = "elements: p q\nleq:\ncomp: p;p=p p;q=p q;p=p q;q=q\n"  # no residuals


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def c2_file(tmp_path):
    path = tmp_path / "c2.alg"
    path.write_text(C2_TEXT)
    return str(path)


def run_json(runner, args):
    result = runner.invoke(main, args + ["--format", "json"], catch_exceptions=False)
    payload = json.loads(result.output) if result.output.strip().startswith("{") else None
    return result, payload


def test_decide_valid(runner, c2_file):
    result, payload = run_json(runner, ["decide", c2_file])
    assert result.exit_code == 0
    assert payload["valid"] is True


def test_decide_text_and_json_agree(runner, c2_file):
    text = runner.invoke(main, ["decide", c2_file], catch_exceptions=False)
    _, payload = run_json(runner, ["decide", c2_file])
    assert "verdict: valid" in text.output.splitlines()
    assert payload["valid"] is True


def test_decide_mutated_residual_table(runner, tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text(MUTATED_C2)
    result, payload = run_json(runner, ["decide", str(path)])
    assert result.exit_code == 1
    assert payload["valid"] is False
    assert {"axiom": "residuation", "witness": ["a", "b", "a"]} in payload["failures"]


def test_decide_no_residuals_exists(runner, tmp_path):
    path = tmp_path / "antichain.alg"
    path.write_text(ANTICHAIN)
    result, payload = run_json(runner, ["decide", str(path)])
    assert result.exit_code == 1
    assert payload["valid"] is False
    assert payload["reason"] == (
        "no left residual for pair (p, p); candidate set [p, q] has no maximum"
    )


def test_decide_malformed_file(runner, tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("elements x y\n")
    result = runner.invoke(main, ["decide", str(path)])
    assert result.exit_code == 2


def test_decide_missing_file(runner):
    result = runner.invoke(main, ["decide", "nope.alg"])
    assert result.exit_code == 2


@pytest.mark.parametrize("content", [None, b"elements: \xff\n"], ids=["directory", "not-utf8"])
def test_unreadable_file_exit_two(runner, tmp_path, content):
    path = tmp_path / "input.alg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for command in ("decide", "represent"):
        result = runner.invoke(main, [command, str(path)], catch_exceptions=False)
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1


@pytest.mark.parametrize("args, code", [
    (["decide", "FILE"], 0),
    (["verify", "ALGEBRA", "FILE"], 1),
    (["lambek", "eval", "p |- p", "FILE"], 0),
], ids=["algebra", "dump", "model"])
def test_a_leading_byte_order_mark_is_ignored(runner, tmp_path, c2_file, args, code):
    texts = {
        "decide": C2_TEXT,
        "verify": json.dumps(rel.interpretation_payload(
            relrep.represent_pipeline(make_c2()).interpretation)),
        "lambek": json.dumps({"base": 1, "valuation": {"p": [[0, 0]]}}),
    }
    path = tmp_path / "input"
    argv = [{"ALGEBRA": c2_file, "FILE": str(path)}.get(a, a) for a in args]
    outcomes = []
    for mark in ("", "\ufeff"):
        path.write_text(mark + texts[args[0]], encoding="utf-8")
        for fmt in ("text", "json"):
            result = runner.invoke(main, argv + ["--format", fmt], catch_exceptions=False)
            outcomes.append((result.exit_code, result.output))
    assert outcomes[:2] == outcomes[2:]
    assert [exit_code for exit_code, _ in outcomes] == [code] * 4


@pytest.mark.parametrize("command", ["represent", "complete", "verify", "search"])
def test_algebra_without_residuals_exit_one(runner, tmp_path, command):
    path = tmp_path / "antichain.alg"
    path.write_text("elements: a b\nleq:\ncomp: a;a=a a;b=a b;a=a b;b=a\n")
    dump = tmp_path / "antichain.rep"
    dump.write_text("base: 0\nrel a: (0,0)\nrel b: (0,0)\n")
    args = [command, str(path)] + ([str(dump)] if command == "verify" else [])
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: not a residuated semigroup: ")
    assert lines[0].endswith("run decide for details")
    assert lines[0] == (
        "error: not a residuated semigroup: no left residual for pair (a, a); "
        "candidate set [a, b] has no maximum; run decide for details"
    )


NON_ASSOCIATIVE = "elements: a b\nleq: a<=b\ncomp: a;a=b a;b=a b;a=a b;b=a\n"


@pytest.mark.parametrize("command", ["complete", "represent", "search"])
def test_invalid_algebra_names_first_failed_axiom(runner, tmp_path, command):
    # residuals exist, but associativity fails: decide reports it, and the
    # commands that need a residuated semigroup end with exit 1 before working
    path = tmp_path / "nonassoc.alg"
    path.write_text(NON_ASSOCIATIVE)
    result = runner.invoke(main, [command, str(path)], catch_exceptions=False)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: not a residuated semigroup: associativity fails at (a, a, b); "
        "run decide for details"
    ]


LONG_TOKEN = "x" * 3000
MAX_ERROR_LINE = 200


@pytest.mark.parametrize(
    "args, text, start",
    [
        (["verify", "ALGEBRA", "FILE"], "[" * 5000, "error: unexpected line '[[["),
        (["decide", "FILE"], f"elements: a {LONG_TOKEN}!\n", "error: invalid element name 'xxx"),
        (["pointalg", "--generators", LONG_TOKEN], None, "error: unknown point-algebra element 'xxx"),
    ],
    ids=["verify-dump-line", "decide-token", "pointalg-generator"],
)
def test_error_line_quotes_a_bounded_excerpt(runner, tmp_path, c2_file, args, text, start):
    path = tmp_path / "input"
    path.write_text(text or "")
    args = [{"ALGEBRA": c2_file, "FILE": str(path)}.get(a, a) for a in args]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.startswith(start) and len(line) < MAX_ERROR_LINE, line
    assert "characters)" in line


LONG_NAME = "a" * 3000


@pytest.mark.parametrize(
    "command, text",
    [
        ("represent", f"elements: {LONG_NAME} y\nleq:\ncomp: {LONG_NAME};{LONG_NAME}={LONG_NAME} "
                      f"{LONG_NAME};y={LONG_NAME} y;{LONG_NAME}={LONG_NAME} y;y={LONG_NAME}\n"),
        ("search", f"elements: {LONG_NAME} y\nleq:\ncomp: {LONG_NAME};{LONG_NAME}={LONG_NAME} "
                   f"{LONG_NAME};y={LONG_NAME} y;{LONG_NAME}={LONG_NAME} y;y={LONG_NAME}\n"),
        ("decide", f"elements: {LONG_NAME} y\nleq:\ncomp: {LONG_NAME};{LONG_NAME}={LONG_NAME} "
                   f"{LONG_NAME};y={LONG_NAME} y;{LONG_NAME}={LONG_NAME} y;y={LONG_NAME}\n"),
        # residuals exist, associativity fails at (a.., a.., y)
        ("represent", f"elements: {LONG_NAME} y\nleq: {LONG_NAME}<=y\ncomp: "
                      f"{LONG_NAME};{LONG_NAME}=y {LONG_NAME};y={LONG_NAME} "
                      f"y;{LONG_NAME}={LONG_NAME} y;y={LONG_NAME}\n"),
        # an explicit lres block that disagrees with the inferred residuals
        ("decide", MUTATED_C2.replace("a", LONG_NAME)),
    ],
    ids=["represent-no-residual", "search-no-residual", "decide-no-residual",
         "represent-not-residuated", "decide-residual-mismatch"],
)
def test_long_element_names_keep_one_short_line(runner, tmp_path, command, text):
    path = tmp_path / "long.alg"
    path.write_text(text)
    result = runner.invoke(main, [command, str(path)], catch_exceptions=False)
    assert result.exit_code == 1
    if command == "decide":
        # a verdict on stdout; its reason line carries the error message
        assert result.stderr == ""
        line = result.stdout.splitlines()[2]
        assert line.startswith("reason: ")
    else:
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: not a residuated semigroup: ")
    assert len(line) < MAX_ERROR_LINE, line
    assert "'aaaaaaaaaaaaaaaa'..." in line


def test_no_residual_message_bounds_the_candidate_list():
    from resq.errors import NoResidualError

    names = [f"e{i}" for i in range(10)]
    message = str(NoResidualError(0, 1, "left", frozenset(range(10)), names))
    assert message == ("no left residual for pair (e0, e1); "
                       "candidate set [e0, e1, e2, ... (10 in all)] has no maximum")


def test_unknown_subcommand_usage_error(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def test_complete_dump(runner, c2_file):
    result, payload = run_json(runner, ["complete", c2_file])
    assert result.exit_code == 0
    assert payload["elements"] == ["{a}", "{a,b}"]
    assert payload["bottom"] == 0


def test_represent_unitalize_off_reports_condition_one(runner, c2_file):
    result, payload = run_json(runner, ["represent", c2_file, "--unitalize", "off"])
    assert result.exit_code == 1
    verification = payload["verification"]
    assert verification["order-iff"]["status"] == "fail"
    assert verification["order-iff"]["witness"]["elements"] == ["b", "a"]


def test_represent_auto_passes_order_and_composition(runner, c2_file):
    result, payload = run_json(runner, ["represent", c2_file])
    assert payload["unitalized"] is True
    assert payload["base_size"] == 4
    verification = payload["verification"]
    assert verification["order-iff"]["status"] == "pass"
    assert verification["composition"]["status"] == "pass"
    # the full report is emitted even though the residual conditions fail here
    assert result.exit_code == 1
    assert verification["left-residual"]["status"] == "fail"


C2_REASON = {"condition": "order-iff", "status": "fail",
             "witness": {"elements": ["{a,b}", "{a}"]}}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "mode, reason, line",
    [
        ("auto", C2_REASON, "unitalize_reason: order-iff fail witness elements ({a,b}, {a})"),
        ("on", None, "unitalize_reason: none"),
        ("off", None, "unitalize_reason: none"),
    ],
)
def test_represent_reports_why_auto_mode_unitalized(runner, c2_file, fmt, mode, reason, line):
    # the hats of the plain completion of C2 send {a} and {a,b} to one relation
    result = runner.invoke(
        main, ["represent", c2_file, "--unitalize", mode, "--format", fmt],
        catch_exceptions=False,
    )
    if fmt == "json":
        assert json.loads(result.output)["unitalize_reason"] == reason
    else:
        assert line in result.output.splitlines()


def test_represent_reports_a_passing_order_condition(runner, tmp_path):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    result, payload = run_json(runner, ["represent", str(path)])
    assert payload["unitalized"] is False
    assert payload["unitalize_reason"] == {"condition": "order-iff", "status": "pass"}
    text = runner.invoke(main, ["represent", str(path)], catch_exceptions=False)
    assert "unitalize_reason: order-iff pass" in text.output.splitlines()


def test_represent_one_element_exit_zero(runner, tmp_path):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    result, payload = run_json(runner, ["represent", str(path)])
    assert result.exit_code == 0
    assert payload["base_size"] == 1
    assert payload["verification"]["all_pass"] is True


def test_represent_json_output_feeds_verify(runner, tmp_path, c2_file):
    dump = runner.invoke(
        main, ["represent", c2_file, "--format", "json"], catch_exceptions=False
    )
    dump_path = tmp_path / "c2.json"
    dump_path.write_text(dump.output)  # extra report keys are ignored by the parser
    result, verify_payload = run_json(runner, ["verify", c2_file, str(dump_path)])
    assert result.exit_code == 1  # same residual-condition failures as represent
    assert verify_payload["verification"]["order-iff"]["status"] == "pass"


def test_search_json_output_feeds_verify(runner, tmp_path):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    found = runner.invoke(main, ["search", str(path), "--max-base", "1", "--format", "json"],
                          catch_exceptions=False)
    assert found.exit_code == 0 and json.loads(found.stdout)["verdict"] == "found"
    dump_path = tmp_path / "one.json"
    dump_path.write_text(found.stdout)  # the verdict's own keys are ignored by the parser
    result, payload = run_json(runner, ["verify", str(path), str(dump_path)])
    assert result.exit_code == 0
    assert payload["verdict"] == "represented"


def test_represent_output_file_feeds_verify(runner, tmp_path, c2_file):
    dump_path = tmp_path / "c2.rep"
    rep = runner.invoke(
        main, ["represent", c2_file, "--output", str(dump_path)], catch_exceptions=False
    )
    assert rep.exit_code == 1
    assert dump_path.read_text().startswith("base: {a} {a,b} {a}+e {a,b}+e\n")
    result, payload = run_json(runner, ["verify", c2_file, str(dump_path)])
    assert result.exit_code == 1
    assert payload["verification"]["composition"]["status"] == "pass"


def test_verify_text_dump(runner, tmp_path):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    rep = tmp_path / "one.rep"
    rep.write_text("base: q\nrel x: (0,0)\n")
    result, payload = run_json(runner, ["verify", str(path), str(rep)])
    assert result.exit_code == 0
    assert payload["verification"]["all_pass"] is True
    assert payload["union_transitive"] is True


def test_verify_reads_json_elements_in_any_order(runner, tmp_path, c2_file):
    payload = rel.interpretation_payload(relrep.represent_pipeline(make_c2()).interpretation)
    verdicts = []
    for elements in (payload["elements"], payload["elements"][::-1]):
        rep = tmp_path / "c2.json"
        rep.write_text(json.dumps(payload | {"elements": elements}))
        result, verify_payload = run_json(runner, ["verify", c2_file, str(rep)])
        verdicts.append((result.exit_code, verify_payload))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == 1


def test_verify_rejects_bad_dump(runner, tmp_path):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    rep = tmp_path / "one.rep"
    rep.write_text("rel x: (0,0)\n")
    result = runner.invoke(main, ["verify", str(path), str(rep)])
    assert result.exit_code == 2


def test_verify_rejects_duplicate_relation(runner, tmp_path):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    rep = tmp_path / "one.rep"
    rep.write_text("base: q\nrel x: (0,0)\nrel x:\n")
    result = runner.invoke(main, ["verify", str(path), str(rep)], catch_exceptions=False)
    assert result.exit_code == 2
    assert "second relation for element 'x'" in result.output


@pytest.mark.parametrize(
    "dump, message",
    [
        ({"base": 2, "relations": {"x": [[0, 0]]}}, "'base' must be a list"),
        ({"base": ["q"], "relations": [["x", [[0, 0]]]]}, "'relations' must be an object"),
        ({"base": ["q"], "relations": {"x": 0}}, "relation 'x' must be a list of [x, y] pairs"),
        ({"base": ["q"], "relations": {"x": [[0]]}}, "relation 'x' must be a list of [x, y] pairs"),
        ({"base": ["q"], "relations": {"x": [["0", 0]]}}, "relation 'x' must be a list"),
    ],
)
def test_verify_rejects_malformed_json_dump(runner, tmp_path, dump, message):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    rep = tmp_path / "one.json"
    rep.write_text(json.dumps(dump))
    result = runner.invoke(main, ["verify", str(path), str(rep)], catch_exceptions=False)
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command", [["search", "ALGEBRA"], ["pointalg"], ["lambek", "counter", "p*q |- q*p"]]
)
def test_max_base_below_one_is_an_input_error(runner, c2_file, command, value):
    args = [c2_file if arg == "ALGEBRA" else arg for arg in command]
    result = runner.invoke(main, args + ["--max-base", value], catch_exceptions=False)
    assert result.exit_code == 2
    assert "--max-base" in result.output


BUDGETED_COMMANDS = [
    ["search", "ALGEBRA", "--max-base", "1"],
    ["pointalg", "--max-base", "1"],
    ["lambek", "prove", "p |- p"],
    ["lambek", "counter", "p |- p", "--max-base", "1"],
]


@pytest.mark.parametrize("source", ["option", "environment"])
@pytest.mark.parametrize("value", ["abc", "0", "-1"])
@pytest.mark.parametrize("command", BUDGETED_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_malformed_node_budget_is_an_input_error(runner, c2_file, monkeypatch, command,
                                                  value, source):
    args = [c2_file if arg == "ALGEBRA" else arg for arg in command]
    if source == "option":
        args += ["--node-budget", value]
    else:
        monkeypatch.setenv("RESQ_NODE_BUDGET", value)
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "--node-budget" in errors[0]
    if source == "environment":
        assert f"(from RESQ_NODE_BUDGET): {value}" in errors[0].replace("'", "")
    else:
        assert errors[0].startswith("Error: Invalid value for '--node-budget': ")
        assert "RESQ_NODE_BUDGET" not in errors[0]
    assert "Traceback" not in result.output


def test_node_budget_option_overrides_environment(runner, c2_file, monkeypatch):
    monkeypatch.setenv("RESQ_NODE_BUDGET", "abc")
    result = runner.invoke(
        main, ["search", c2_file, "--max-base", "1", "--node-budget", "100000"],
        catch_exceptions=False,
    )
    assert result.exit_code == 1  # exhausted, not an input error


def test_search_found_one_element(runner, tmp_path):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    result, payload = run_json(runner, ["search", str(path), "--max-base", "2"])
    assert result.exit_code == 0
    assert payload["verdict"] == "found"
    assert payload["base_size"] == 1


def test_search_exhausted_exit_one(runner, c2_file):
    result, payload = run_json(runner, ["search", c2_file, "--max-base", "1"])
    assert result.exit_code == 1
    assert payload["verdict"] == "exhausted"


def test_search_budget_exit_three(runner, c2_file):
    result = runner.invoke(main, ["search", c2_file, "--max-base", "3", "--node-budget", "4"])
    assert result.exit_code == 3


def test_search_env_budget(runner, c2_file, monkeypatch):
    monkeypatch.setenv("RESQ_NODE_BUDGET", "4")
    result = runner.invoke(main, ["search", c2_file, "--max-base", "3"])
    assert result.exit_code == 3


def test_pointalg_default_probe(runner):
    result, payload = run_json(runner, ["pointalg", "--max-base", "3"])
    assert result.exit_code == 0
    assert payload["generators"] == ["<", ">"]
    assert payload["carrier"] == ["<", ">", "neq", "full"]
    assert payload["verdict"] == "found"
    assert payload["base_size"] == 3


def test_pointalg_exhausted_at_base_two(runner):
    result, payload = run_json(runner, ["pointalg", "--max-base", "2"])
    assert result.exit_code == 1
    assert payload["verdict"] == "exhausted"


def test_pointalg_bad_generators(runner):
    result = runner.invoke(main, ["pointalg", "--generators", "<,%"])
    assert result.exit_code == 2


def test_lambek_prove(runner):
    result, payload = run_json(runner, ["lambek", "prove", "p, p\\q |- q"])
    assert result.exit_code == 0
    assert payload["derivable"] is True


def test_lambek_prove_underivable(runner):
    result, payload = run_json(runner, ["lambek", "prove", "p*q |- q*p"])
    assert result.exit_code == 1
    assert payload["derivable"] is False


def test_lambek_prove_trace(runner):
    result, payload = run_json(runner, ["lambek", "prove", "p |- p", "--trace"])
    assert payload["proof"]["rule"] == "ax"


def test_lambek_prove_parse_error(runner):
    result = runner.invoke(main, ["lambek", "prove", "|- p"])
    assert result.exit_code == 2


def test_lambek_counter_found(runner):
    result, payload = run_json(runner, ["lambek", "counter", "p*q |- q*p", "--max-base", "2"])
    assert result.exit_code == 0
    assert payload["verdict"] == "found"
    assert payload["base"] == 2


def test_lambek_counter_exhausted(runner):
    result, payload = run_json(runner, ["lambek", "counter", "p |- p", "--max-base", "2"])
    assert result.exit_code == 1
    assert payload["verdict"] == "exhausted"


def test_lambek_counter_output_feeds_eval(runner, tmp_path):
    counter, payload = run_json(runner, ["lambek", "counter", "p*q |- q*p", "--max-base", "2"])
    assert counter.exit_code == 0 and payload["verdict"] == "found"
    model_path = tmp_path / "model.json"
    model_path.write_text(counter.stdout)  # the verdict's own keys are ignored by the reader
    result, eval_payload = run_json(runner, ["lambek", "eval", "p*q |- q*p", str(model_path)])
    assert result.exit_code == 1
    assert eval_payload["holds"] is False


def test_lambek_eval_true(runner, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"base": 2, "valuation": {"p": [[0, 1]]}}))
    result, payload = run_json(runner, ["lambek", "eval", "p |- p", str(model_path)])
    assert result.exit_code == 0
    assert payload["holds"] is True


def test_lambek_eval_missing_atom(runner, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"base": 1, "valuation": {"p": [[0, 0]]}}))
    result = runner.invoke(main, ["lambek", "eval", "p |- q", str(model_path)])
    assert result.exit_code == 2


DEEP_PARENTHESES = "(" * 3000 + "p" + ")" * 3000 + " |- p"
LONG_PRODUCT = "*".join(["p"] * 1500) + " |- p"
# balanced, so the prover searches it: l-prod once per factor, deeper than
# the recursion limit
DEEP_PROOF = ", ".join(["*".join(["p"] * 750)] * 2) + " |- " + "*".join(["p"] * 1500)


# the verdict of each command on LONG_PRODUCT: the count invariant refutes it
# without a search node; p = {(0,1), (1,0)} makes p^1500 the identity,
# outside p; the one-point model p = {(0,0)} satisfies it
LONG_PRODUCT_VERDICTS = {"prove": (1, "verdict: underivable"), "counter": (0, "verdict: found"),
                         "eval": (0, "verdict: holds")}


@pytest.mark.parametrize("command", ["prove", "counter", "eval"])
@pytest.mark.parametrize("sequent", [DEEP_PARENTHESES, LONG_PRODUCT], ids=["nested", "product"])
def test_lambek_deep_sequent_documented_exit(runner, tmp_path, command, sequent):
    # the parser takes at most MAX_NESTING levels of parentheses; a long
    # product parses, and printing, evaluation and the countermodel search
    # walk its left spine in a loop
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"base": 1, "valuation": {"p": [[0, 0]]}}))
    args = ["lambek", command, sequent] + ([str(model_path)] if command == "eval" else [])
    result = runner.invoke(main, args, catch_exceptions=False)
    lines = result.output.splitlines()
    if sequent == DEEP_PARENTHESES:
        assert result.exit_code == 2
        assert len(lines) == 1
    else:
        code, line = LONG_PRODUCT_VERDICTS[command]
        assert result.exit_code == code, result.output
        assert lines[0] == line and "sequent: " + LONG_PRODUCT in lines


def test_lambek_long_product_countermodel_rechecks(runner):
    result, payload = run_json(
        runner, ["lambek", "counter", LONG_PRODUCT.replace("|- p", "|- q"), "--max-base", "1"])
    assert result.exit_code == 0
    assert payload["verdict"] == "found" and payload["base"] == 1
    model = rel.parse_model(result.output)
    assert not lambek.evaluate(lambek.parse_sequent(payload["sequent"]), model)


def test_base_five_search_ends_in_the_budget_error_within_bounded_memory(c2_file):
    # a base of 5 points has 2**25 relations; the search sweeps them a block
    # at a time and never lists them, so 1.5 GB of address space is plenty
    limit = 1_500_000_000

    def cap_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "resq.cli", "search", c2_file, "--max-base", "5",
         "--node-budget", "10000"],
        capture_output=True, text=True, env=_fresh_env(), preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: node budget exhausted while searching base 5; bases exhausted: 1, 2, 3, 4 "
        "(limit 10000)"
    ]


def _fresh_env() -> dict:
    """The environment for a new interpreter that imports this resq, without a
    node budget set from outside."""
    env = {key: value for key, value in os.environ.items() if key != "RESQ_NODE_BUDGET"}
    src = str(Path(resq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return env


LATE_MODULES = {"completion", "relrep", "verifier", "lambek", "pointalg"}


@pytest.mark.parametrize("args, code, unloaded", [
    (["--help"], 0, LATE_MODULES),
    (["decide", "ALGEBRA"], 0, LATE_MODULES),
    (["complete", "ALGEBRA"], 0, {"verifier", "relrep", "lambek", "pointalg"}),
    (["represent", "ALGEBRA"], 1, {"lambek", "pointalg"}),
    (["verify", "ALGEBRA", "DUMP"], 1, {"completion", "relrep", "lambek", "pointalg"}),
    (["search", "ALGEBRA", "--max-base", "1"], 1, {"completion", "relrep", "lambek", "pointalg"}),
    (["search", "ONE", "--max-base", "1"], 0, {"completion", "relrep", "lambek", "pointalg"}),
    (["pointalg", "--max-base", "3"], 0, {"completion", "relrep", "lambek"}),
    (["lambek", "prove", "p, p\\q |- q"], 0, {"completion", "relrep", "pointalg"}),
    (["lambek", "counter", "p*q |- q*p", "--max-base", "2"], 0,
     {"completion", "relrep", "pointalg"}),
    (["lambek", "eval", "p |- p", "MODEL"], 0, {"completion", "relrep", "pointalg"}),
], ids=["help", "decide", "complete", "represent", "verify", "search-exhausted", "search-found",
        "pointalg", "lambek-prove", "lambek-counter", "lambek-eval"])
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, c2_file, args, code, unloaded):
    dump = tmp_path / "c2.rep"
    dump.write_text(rel.format_interpretation(relrep.represent_pipeline(make_c2()).interpretation))
    model = tmp_path / "model.json"
    model.write_text(VALID_MODEL)
    one = tmp_path / "one.alg"
    one.write_text(ONE)
    paths = {"ALGEBRA": c2_file, "ONE": str(one), "DUMP": str(dump), "MODEL": str(model)}
    argv = [paths.get(a, a) for a in args]
    # -X importtime lists on stderr every module the fresh interpreter imports
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "resq.cli", *argv],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    loaded = {name.removeprefix("resq.") for name in imported if name.startswith("resq.")}
    assert {"algebra", "relations", "errors"} <= loaded
    assert not loaded & unloaded


NAMESPACE_PROBE = """
import json, sys
import resq
fresh = sorted(name for name in sys.modules if name.startswith("resq."))
listed = set(dir(resq))
star = {}
exec("from resq import *", star)
try:
    resq.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
exported = {name: getattr(resq, name) for name in resq.__all__}
print(json.dumps({
    "fresh": fresh,
    "foreign": [name for name, value in exported.items() if not value.__module__.startswith("resq.")
                or getattr(sys.modules[value.__module__], name) is not value],
    "undir": sorted(set(resq.__all__) - listed),
    "star": sorted(star.keys() - {"__builtins__"}),
    "all": sorted(resq.__all__),
    "missing": missing,
}))
"""


def test_the_package_namespace_loads_its_exports_on_first_use():
    proc = subprocess.run([sys.executable, "-c", NAMESPACE_PROBE], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120, check=True)
    probe = json.loads(proc.stdout)
    assert probe["fresh"] == []
    assert probe["foreign"] == []
    assert probe["undir"] == []
    assert probe["star"] == probe["all"]
    assert len(probe["all"]) == 29
    assert probe["missing"] == "module 'resq' has no attribute 'no_such_name'"


def test_deterministic_json_output(runner, c2_file):
    first = runner.invoke(main, ["represent", c2_file, "--format", "json"], catch_exceptions=False)
    second = runner.invoke(main, ["represent", c2_file, "--format", "json"], catch_exceptions=False)
    assert first.output == second.output


VALID_MODEL = json.dumps({"base": 1, "valuation": {"p": [[0, 0]]}})
DEEP_JSON = "[" * 5000


def _args(*args, text=VALID_MODEL):
    """Arguments with ALGEBRA standing for C2, FILE for a file holding text,
    and a relative path for one under tmp_path."""
    def setup(tmp_path, c2_file, monkeypatch):
        path = tmp_path / "input"
        path.write_text(text)
        named = {"ALGEBRA": c2_file, "FILE": str(path)}
        return [named.get(a, str(tmp_path / a) if "/" in a else a) for a in args]

    return setup


def _crashing_completion(tmp_path, c2_file, monkeypatch):
    def crash(A):
        raise RuntimeError("completion crashed")

    monkeypatch.setattr(relrep, "build_quantale", crash)
    return ["represent", c2_file]


ERROR_CASES = [
    *((f"eval-model-{i}", _args("lambek", "eval", "p |- p", "FILE", text=json.dumps(model)), 2,
       "error: ") for i, model in enumerate(MALFORMED_MODELS)),
    ("eval-model-nested-too-deep", _args("lambek", "eval", "p |- p", "FILE", text=DEEP_JSON), 2,
     "error: model is not valid JSON: "),
    ("represent-output-missing-dir", _args("represent", "ALGEBRA", "--output", "missing/x"), 2,
     "error: "),
    ("text-dump-non-integer-point",
     _args("verify", "ALGEBRA", "FILE", text="base: 0\nrel a: (0,x)\nrel b: (0,0)\n"), 2,
     "error: expected (x,y) with integer x, y"),
    ("json-dump-nested-too-deep",
     _args("verify", "ALGEBRA", "FILE", text='{"base": ["0"], "relations": ' + DEEP_JSON), 2,
     "error: dump is not valid JSON: "),
    ("pointalg-unknown-element", _args("pointalg", "--generators", "<,%"), 2,
     "error: unknown point-algebra element '%'"),
    ("prove-long-product", _args("lambek", "prove", DEEP_PROOF), 3,
     "error: formula too deep for the recursion limit"),
    ("internal-error", _crashing_completion, 4,
     "error: internal error: RuntimeError: completion crashed"),
]


@pytest.mark.parametrize("case, setup, code, prefix", ERROR_CASES, ids=[c[0] for c in ERROR_CASES])
def test_error_contract(runner, tmp_path, c2_file, monkeypatch, case, setup, code, prefix):
    args = setup(tmp_path, c2_file, monkeypatch)
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == code, result.output
    assert "Traceback" not in result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), result.stderr


def test_click_endings_pass_through(runner, c2_file):
    help_run = runner.invoke(main, ["search", "--help"], catch_exceptions=False)
    assert help_run.exit_code == 0
    assert help_run.stdout.startswith("Usage: ") and help_run.stderr == ""
    usage = runner.invoke(main, ["search", c2_file, "--bogus"], catch_exceptions=False)
    assert usage.exit_code == 2
    errors = [line for line in usage.stderr.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: No such option '--bogus'."]
    assert "Traceback" not in usage.output


def test_represent_has_no_generator_choice(runner, c2_file):
    # the hat map takes every quantale element as a generator
    help_run = runner.invoke(main, ["represent", "--help"], catch_exceptions=False)
    assert help_run.exit_code == 0 and "--unitalize" in help_run.stdout
    assert "--generators" not in help_run.stdout
    usage = runner.invoke(main, ["represent", c2_file, "--generators", "all"],
                          catch_exceptions=False)
    assert usage.exit_code == 2 and usage.stdout == ""
    errors = [line for line in usage.stderr.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: No such option '--generators'."]
    assert "Traceback" not in usage.output


# the exit code of each verdict, the table the README documents
EXIT_OF_VERDICT = {**dict.fromkeys(["valid", "represented", "found", "derivable", "holds"], 0),
                   **dict.fromkeys(["invalid", "failing", "exhausted", "underivable", "fails"], 1)}

# the JSON keys that repeat the verdict, true exactly when it is their own
# name; the text leaves them out
VERDICT_KEYS = {"valid", "derivable", "holds"}

# the machine-independent stats of each command; the others report none
STATS_OF_COMMAND = {"search": ["nodes"], "pointalg": ["nodes"], "lambek-counter": ["nodes"],
                    "represent": ["quantale_size"]}

# the text line that carries each evidence key of the JSON
TEXT_LINE_OF_KEY = {
    "reason": "reason: ",
    "failures": "failure: ",
    "options": "options: ",
    "unitalized": "unitalized: ",
    "unitalize_reason": "unitalize_reason: ",
    "base_size": "base_size: ",
    "base": "base: ",
    "elements": "rel ",
    "relations": "rel ",
    "verification": "order-iff: ",
    "union_transitive": "union transitive: ",
    "generators": "generators: ",
    "carrier": "carrier: ",
    "max_base": "max_base: ",
    "sequent": "sequent: ",
    "proof": "[",
    "valuation": "v(",
}


@pytest.mark.parametrize(
    "args",
    [
        ["decide", "ALGEBRA"],
        ["decide", "MUTATED"],
        ["decide", "ANTICHAIN"],
        ["represent", "ALGEBRA"],
        ["represent", "ALGEBRA", "--unitalize", "off"],
        ["represent", "ONE"],
        ["verify", "ALGEBRA", "DUMP"],
        ["pointalg", "--max-base", "3"],
        ["pointalg", "--max-base", "2"],
        ["search", "ALGEBRA", "--max-base", "2"],
        ["search", "ONE", "--max-base", "1"],
        ["lambek", "prove", "p |- (p*q)/q", "--trace"],
        ["lambek", "prove", "p*q |- q*p"],
        ["lambek", "counter", "p*q |- q*p", "--max-base", "2"],
        ["lambek", "counter", "p |- p", "--max-base", "2"],
        ["lambek", "eval", "p*q |- q*p", "MODEL"],
        ["lambek", "eval", "p |- p", "MODEL"],
    ],
    ids=["decide-valid", "decide-invalid", "decide-no-residuals", "represent",
         "represent-options", "represent-one", "verify", "pointalg-found", "pointalg-exhausted",
         "search-exhausted", "search-found", "lambek-prove", "lambek-prove-underivable",
         "lambek-counter-found", "lambek-counter-exhausted", "lambek-eval",
         "lambek-eval-holds"],
)
def test_text_carries_every_json_field(runner, tmp_path, c2_file, args):
    files = {"MODEL": json.dumps({"base": 2, "valuation": {"p": [[0, 1]], "q": [[1, 0]]}}),
             "ONE": ONE, "MUTATED": MUTATED_C2, "ANTICHAIN": ANTICHAIN,
             "DUMP": rel.format_interpretation(relrep.represent_pipeline(make_c2()).interpretation)}
    paths = {"ALGEBRA": c2_file}
    for name, text in files.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    args = [paths.get(a, a) for a in args]
    json_run, payload = run_json(runner, args)
    text_run = runner.invoke(main, args, catch_exceptions=False)
    lines = text_run.output.splitlines()
    verdict = payload["verdict"]
    assert json_run.exit_code == text_run.exit_code == EXIT_OF_VERDICT[verdict]
    semantics = None if payload["command"] in ("decide", "lambek-prove") else "square"
    assert payload["semantics"] == semantics
    assert lines[:2] == [f"verdict: {verdict}", f"semantics: {semantics or 'none'}"]
    assert list(payload["stats"]) == STATS_OF_COMMAND.get(payload["command"], [])
    for key, value in payload["stats"].items():
        assert f"{key}: {value}" in lines, key
    for key, value in payload.items():
        if key in ("command", "verdict", "semantics", "stats"):
            continue
        if key in VERDICT_KEYS:
            assert value is (verdict == key)
            assert not any(line.startswith(f"{key}:") for line in lines), key
            continue
        prefix = TEXT_LINE_OF_KEY[key]
        assert any(line.startswith(prefix) for line in lines) == (value != []), key
        if isinstance(value, (bool, int, str)):
            rendered = str(value).lower() if isinstance(value, bool) else str(value)
            assert f"{prefix}{rendered}" in lines, key
    if args[0] == "search":
        # the nodes the library's search spends on the same input
        budget = NodeBudget()
        search_representation(parse_algebra(Path(args[1]).read_text()), int(args[3]), budget)
        assert payload["stats"]["nodes"] == budget.used > 0
    if args[:2] == ["lambek", "counter"]:
        # the nodes the library's countermodel search spends on the same input
        budget = NodeBudget()
        lambek.countermodel_search(lambek.parse_sequent(args[2]), int(args[4]), budget=budget)
        assert payload["stats"]["nodes"] == budget.used > 0
    if args[0] == "represent":
        options = payload["options"]
        assert list(options) == ["unitalize"]
        assert f"options: unitalize={options['unitalize']}" in lines


@pytest.mark.parametrize(
    "dump, message",
    [
        ("base:\nrel x:\n", "dump base must list at least one point"),
        ({"base": [], "relations": {"x": []}}, "dump base must list at least one point"),
        ("base: 0 0\nrel x: (0,0)\n", "duplicate base label '0'"),
        ({"base": ["q", "q"], "relations": {"x": [[0, 0]]}}, "duplicate base label 'q'"),
        # str() makes 0 and "0" one label
        ({"base": [0, "0"], "relations": {"x": [[0, 0]]}}, "duplicate base label '0'"),
        ("base: q\nrel x: (0,0)\nrel y: (0,0)\n",
         "dump has a relation for 'y', which the algebra lacks"),
        ({"base": ["q"], "relations": {"x": [[0, 0]], "y": [[0, 0]]}},
         "dump has a relation for 'y', which the algebra lacks"),
        ({"base": ["q"], "relations": {"x": [], "y" * 50: []}},
         "dump has a relation for 'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy'... (50 characters), "
         "which the algebra lacks"),
        ("base: q\nrel x: (" + "1" * 300 + ",0)\n",
         "pair '(111111111111111111111111111111111111111'... (305 characters) "
         "outside base of size 1"),
        # 'elements' must agree with the algebra, not only be present
        ({"base": ["q"], "elements": ["zzz", 5], "relations": {"x": [[0, 0]]}},
         "dump field 'elements' must name each element of the algebra once"),
        ({"base": ["q"], "elements": ["x", "x"], "relations": {"x": [[0, 0]]}},
         "dump field 'elements' must name each element of the algebra once"),
        ({"base": ["q"], "elements": "x", "relations": {"x": [[0, 0]]}},
         "dump field 'elements' must name each element of the algebra once"),
    ],
    ids=["text-empty-base", "json-empty-base", "text-duplicate-label", "json-duplicate-label",
         "json-labels-equal-as-text", "text-unknown-element", "json-unknown-element",
         "json-long-unknown-element", "text-long-pair", "json-elements-contradict-relations",
         "json-elements-repeat-a-name", "json-elements-not-a-list"],
)
def test_verify_rejects_a_dump_the_algebra_cannot_read(runner, tmp_path, dump, message):
    path = tmp_path / "one.alg"
    path.write_text(ONE)
    rep = tmp_path / "one.rep"
    rep.write_text(dump if isinstance(dump, str) else json.dumps(dump))
    result = runner.invoke(main, ["verify", str(path), str(rep)], catch_exceptions=False)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


ONE_Q = "elements: q\nleq: q<=q\ncomp: q;q=q\n"


def assert_one_error_line(result, message):
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def verify_one_q(runner, tmp_path, dump):
    path = tmp_path / "one_q.alg"
    path.write_text(ONE_Q)
    rep = tmp_path / "one_q.rep"
    rep.write_text(dump)
    return runner.invoke(main, ["verify", str(path), str(rep)], catch_exceptions=False)


def eval_p_entails_p(runner, tmp_path, model):
    path = tmp_path / "model.json"
    path.write_text(model)
    return runner.invoke(main, ["lambek", "eval", "p |- p", str(path)], catch_exceptions=False)


def test_verify_rejects_a_json_dump_that_repeats_a_relation(runner, tmp_path):
    result = verify_one_q(runner, tmp_path, '{"base": ["q"], "relations": {"q": [], "q": [[0, 0]]}}')
    assert_one_error_line(result, "dump repeats the key 'q'")


def test_verify_rejects_a_text_dump_with_a_second_base_line(runner, tmp_path):
    result = verify_one_q(runner, tmp_path, "base: q r\nbase: q\nrel q: (0,0)\n")
    assert_one_error_line(result, "second base line (line 2)")


def test_eval_rejects_a_model_that_repeats_an_atom(runner, tmp_path):
    result = eval_p_entails_p(runner, tmp_path, '{"base": 1, "valuation": {"p": [], "p": [[0, 0]]}}')
    assert_one_error_line(result, "model repeats the key 'p'")


def test_eval_rejects_a_model_that_repeats_its_base(runner, tmp_path):
    result = eval_p_entails_p(runner, tmp_path,
                              '{"base": 1, "base": 2, "valuation": {"p": [[1, 1]]}}')
    assert_one_error_line(result, "model repeats the key 'base'")


def test_eval_refuses_a_model_base_above_the_cap(runner, tmp_path):
    cap = rel.MAX_BASE
    result = eval_p_entails_p(runner, tmp_path,
                              f'{{"base": {cap + 1}, "valuation": {{"p": [[0, 1]]}}}}')
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == f"error: model field 'base' exceeds the cap (limit {cap})\n"


@pytest.mark.parametrize("form, what", [("text", "dump base line"), ("json", "dump field 'base'")])
def test_verify_refuses_a_dump_base_above_the_cap(runner, tmp_path, form, what):
    # the cap of lambek eval models holds for dumps too, checked before the
    # points are read
    cap = rel.MAX_BASE
    labels = [str(i) for i in range(cap + 1)]
    dump = (f"base: {' '.join(labels)}\nrel q: (0,1)\n" if form == "text"
            else json.dumps({"base": labels, "relations": {"q": [[0, 1]]}}))
    result = verify_one_q(runner, tmp_path, dump)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == f"error: {what} exceeds the cap (limit {cap})\n"


def test_verify_passes_the_identity_dump_at_the_cap(runner, tmp_path):
    # one relation over MAX_BASE points, the widest stack the checker reads
    # the order off
    cap = rel.MAX_BASE
    identity = tuple(1 << x for x in range(cap))
    dump = rel.format_interpretation(
        rel.Interpretation(("q",), tuple(map(str, range(cap))), (identity,)))
    path = tmp_path / "one_q.alg"
    path.write_text(ONE_Q)
    rep = tmp_path / "one_q.rep"
    rep.write_text(dump)
    result, payload = run_json(runner, ["verify", str(path), str(rep)])
    assert result.exit_code == 0, result.output
    verification = payload["verification"]
    assert verification.pop("all_pass") is True
    assert {name: entry["status"] for name, entry in verification.items()} == {
        "order-iff": "pass", "composition": "pass", "left-residual": "pass",
        "right-residual": "pass"}


@pytest.mark.parametrize("command", ["complete", "represent", "verify", "search"])
def test_mismatched_residual_block_is_not_residuated(runner, tmp_path, command):
    # decide reports the same file as its verdict, valid: false with exit 1
    path = tmp_path / "mismatch.alg"
    path.write_text(MUTATED_C2)
    dump = tmp_path / "c2.rep"
    dump.write_text("base: 0\nrel a: (0,0)\nrel b: (0,0)\n")
    args = [command, str(path)] + ([str(dump)] if command == "verify" else [])
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: not a residuated semigroup: lres entry a\\a=a disagrees with the inferred "
        "residual b; run decide for details\n"
    )


@pytest.mark.parametrize(
    "args, line",
    [
        (["search", "ALGEBRA", "--max-base", "3", "--node-budget", "4"],
         "node budget exhausted while searching base 1; bases exhausted: none (limit 4)"),
        (["search", "ALGEBRA", "--max-base", "3", "--node-budget", "40"],
         "node budget exhausted while searching base 3; bases exhausted: 1, 2 (limit 40)"),
        # one node short of the 158 that exhaust bases 1..3
        (["search", "ALGEBRA", "--max-base", "3", "--node-budget", "157"],
         "node budget exhausted while searching base 3; bases exhausted: 1, 2 (limit 157)"),
        (["pointalg", "--max-base", "3", "--node-budget", "50"],
         "node budget exhausted while searching base 2; bases exhausted: 1 (limit 50)"),
        # one node short of the 12 188 that find {<,>}'s base-3 model
        (["pointalg", "--max-base", "3", "--node-budget", "12187"],
         "node budget exhausted while searching base 3; bases exhausted: 1, 2 (limit 12187)"),
        (["lambek", "counter", "p |- p*(p\\p)", "--max-base", "3", "--node-budget", "30"],
         "node budget exhausted while searching base 2; bases exhausted: 1 (limit 30)"),
    ],
    ids=["search-base-1", "search-base-3", "search-one-short", "pointalg-base-2",
         "pointalg-one-short", "lambek-counter-base-2"],
)
def test_budget_error_says_how_far_the_search_got(runner, c2_file, args, line):
    result = runner.invoke(main, [c2_file if a == "ALGEBRA" else a for a in args],
                           catch_exceptions=False)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == f"error: {line}\n"
