import json

import pytest
from click.testing import CliRunner

from corpus import C2_TEXT
from resq.cli import main

ONE = "elements: x\nleq: x<=x\ncomp: x;x=x\n"
MUTATED_C2 = C2_TEXT + "lres: a\\a=a a\\b=b b\\a=b b\\b=b\n"  # a\\a altered to a


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
    assert "valid: true" in text.output
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
    path.write_text("elements: p q\nleq:\ncomp: p;p=p p;q=p q;p=p q;q=q\n")
    result, payload = run_json(runner, ["decide", str(path)])
    assert result.exit_code == 1
    assert payload["valid"] is False


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
    assert "Traceback" not in result.output


def test_node_budget_option_overrides_environment(runner, c2_file, monkeypatch):
    monkeypatch.setenv("RESQ_NODE_BUDGET", "abc")
    result = runner.invoke(
        main, ["search", c2_file, "--max-base", "1", "--node-budget", "100000"],
        catch_exceptions=False,
    )
    assert result.exit_code == 1  # exhausted, not an input error


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_atom_relations_below_one_is_an_input_error(runner, value):
    result = runner.invoke(
        main, ["lambek", "counter", "p*q |- q*p", "--max-atom-relations", value],
        catch_exceptions=False,
    )
    assert result.exit_code == 2
    assert "--max-atom-relations" in result.output


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


def test_search_no_symmetry_same_verdict(runner, c2_file):
    fast = runner.invoke(main, ["search", c2_file, "--max-base", "1"])
    slow = runner.invoke(main, ["search", c2_file, "--max-base", "1", "--no-symmetry"])
    assert fast.exit_code == slow.exit_code == 1


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
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"base": payload["base"], "valuation": payload["valuation"]}))
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


@pytest.mark.parametrize("command", ["prove", "counter", "eval"])
@pytest.mark.parametrize(
    "sequent, code", [(DEEP_PARENTHESES, 2), (LONG_PRODUCT, 3)], ids=["nested", "product"]
)
def test_lambek_deep_sequent_documented_exit(runner, tmp_path, command, sequent, code):
    # the parser takes at most MAX_NESTING levels of parentheses; a long
    # product parses but is too deep for the recursive procedures
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"base": 1, "valuation": {"p": [[0, 0]]}}))
    args = ["lambek", command, sequent] + ([str(model_path)] if command == "eval" else [])
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == code
    assert len(result.output.strip().splitlines()) == 1


def test_deterministic_json_output(runner, c2_file):
    first = runner.invoke(main, ["represent", c2_file, "--format", "json"], catch_exceptions=False)
    second = runner.invoke(main, ["represent", c2_file, "--format", "json"], catch_exceptions=False)
    assert first.output == second.output
