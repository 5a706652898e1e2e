import json

import pytest
from click.testing import CliRunner

from corpus import C2_TEXT, MALFORMED_MODELS
from resq import relrep
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
        line = result.stdout.splitlines()[1]
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
    *((f"{command}-long-product", _args("lambek", command, LONG_PRODUCT,
                                        *(["FILE"] if command == "eval" else [])), 3,
       "error: formula too deep for the recursion limit")
      for command in ("prove", "counter", "eval")),
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


# the text line that carries each top-level JSON key other than "command"
TEXT_LINE_OF_KEY = {
    "options": "options: ",
    "unitalized": "unitalized: ",
    "unitalize_reason": "unitalize_reason: ",
    "base_size": "base_size: ",
    "base": "base: ",
    "elements": "rel ",
    "relations": "rel ",
    "verification": "all conditions pass: ",
    "union_transitive": "union transitive: ",
    "generators": "generators: ",
    "carrier": "carrier: ",
    "verdict": "verdict: ",
    "max_base": "max_base: ",
    "stats": ("nodes: ", "seconds: "),
    "sequent": "sequent: ",
    "derivable": "derivable: ",
    "proof": "[",
    "valuation": "v(",
    "holds": "holds: ",
}


@pytest.mark.parametrize(
    "args",
    [
        ["represent", "ALGEBRA"],
        ["represent", "ALGEBRA", "--unitalize", "off", "--generators", "join-irreducible"],
        ["pointalg", "--max-base", "3"],
        ["pointalg", "--max-base", "2"],
        ["search", "ALGEBRA", "--max-base", "2"],
        ["search", "ONE", "--max-base", "1"],
        ["lambek", "prove", "p |- (p*q)/q", "--trace"],
        ["lambek", "counter", "p*q |- q*p", "--max-base", "2"],
        ["lambek", "counter", "p |- p", "--max-base", "2"],
        ["lambek", "eval", "p*q |- q*p", "MODEL"],
    ],
    ids=["represent", "represent-options", "pointalg-found", "pointalg-exhausted",
         "search-exhausted", "search-found",
         "lambek-prove", "lambek-counter-found", "lambek-counter-exhausted", "lambek-eval"],
)
def test_text_carries_every_json_field(runner, tmp_path, c2_file, args):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"base": 2, "valuation": {"p": [[0, 1]], "q": [[1, 0]]}}))
    one = tmp_path / "one.alg"
    one.write_text(ONE)
    args = [{"ALGEBRA": c2_file, "MODEL": str(model), "ONE": str(one)}.get(a, a) for a in args]
    _, payload = run_json(runner, args)
    lines = runner.invoke(main, args, catch_exceptions=False).output.splitlines()
    for key, value in payload.items():
        if key == "command":
            continue
        prefixes = TEXT_LINE_OF_KEY[key]
        for prefix in (prefixes,) if isinstance(prefixes, str) else prefixes:
            assert any(line.startswith(prefix) for line in lines), (key, prefix)
        if isinstance(value, (bool, int, str)):
            rendered = str(value).lower() if isinstance(value, bool) else str(value)
            assert f"{prefixes}{rendered}" in lines, key
    if args[0] == "represent":
        options = payload["options"]
        assert (f"options: unitalize={options['unitalize']} "
                f"generators={options['generators']}") in lines


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
    ],
    ids=["text-empty-base", "json-empty-base", "text-duplicate-label", "json-duplicate-label",
         "json-labels-equal-as-text", "text-unknown-element", "json-unknown-element",
         "json-long-unknown-element"],
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
