"""Fuzz the command line with mutated inputs.

Every run must end with a documented exit code 0-3 (4 is an internal error,
that is, a bug) and no traceback, an input error or a resource limit
(exit 2 or 3) prints exactly one line on stderr, and no stderr line grows
with the input (a mutation may insert a long run of one character).
Inputs are handed to the subcommands as files, or as arguments after
``--``, so click never reads a mutated input as an option.  A dump or model
that repeats a JSON key, at any depth, or a text dump with a second ``base:``
line must be rejected: exit 2 with one stderr line.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from corpus import MALFORMED_MODELS, make_c2, serialize
from resq import relrep
from resq import relations as rel
from resq.cli import main

C2 = make_c2()
ALGEBRA_SEED = serialize(C2)
C2_DUMP = relrep.represent_pipeline(C2).interpretation
DUMP_SEED = rel.format_interpretation(C2_DUMP)
JSON_DUMP_SEED = json.dumps(rel.interpretation_payload(C2_DUMP))
MODEL_SEED = {"base": 2, "valuation": {"p": [[0, 1]], "q": [[1, 0]]}}
SEQUENT_SEED = "(p/q)*q, r\\p |- p*(q\\r)"
ALPHABET = "ab;=<:\\/,()[]{}\"|-*pqe01 \n#"

RUN_LENGTH = 300
MAX_ERROR_LINE = 200

FUZZ = settings(max_examples=15, deadline=None)


def _apply(text, edits):
    for kind, pos, ch in edits:
        pos %= len(text) + 1
        if kind == "insert":
            text = text[:pos] + ch + text[pos:]
        elif kind == "run":
            text = text[:pos] + ch * RUN_LENGTH + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + ch + text[pos + 1:]
    return text


def mutated(seed):
    edit = st.tuples(
        st.sampled_from(("insert", "delete", "replace", "run")),
        st.integers(0, len(seed)),
        st.sampled_from(ALPHABET),
    )
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: _apply(seed, edits))


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(-2, 3), st.sampled_from(["x", "p"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("pqx"), inner,
                                                                 max_size=2),
    max_leaves=6,
)
pairs = st.lists(st.lists(st.integers(-1, 2), min_size=1, max_size=3), max_size=3)
models = st.one_of(
    st.sampled_from(MALFORMED_MODELS),
    json_values,
    st.fixed_dictionaries({
        "base": st.one_of(st.integers(-1, 2), json_scalars),
        "valuation": st.one_of(st.dictionaries(st.sampled_from("pqr"), pairs | json_values,
                                               max_size=3), json_values),
    }),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    c2 = root / "c2.alg"
    c2.write_text(ALGEBRA_SEED)
    return root, str(c2)


def check_ending(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert "Traceback" not in result.output, (args, result.output)
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)
    if result.exit_code in (2, 3):
        assert len(result.stderr.splitlines()) == 1, (args, result.stderr)
    for line in result.stderr.splitlines():
        assert len(line) < MAX_ERROR_LINE, (args, line)
    return result


def repeating_key(value, choice: int, again) -> str:
    """JSON text of value in which key number choice, counting the keys of
    every object in document order, appears a second time, with value again."""
    count = 0

    def render(v) -> str:
        nonlocal count
        if isinstance(v, dict):
            items = []
            for key, item in v.items():
                mine, count = count, count + 1
                items.append(f"{json.dumps(key)}: {render(item)}")
                if mine == choice:
                    items.append(f"{json.dumps(key)}: {json.dumps(again)}")
            return "{" + ", ".join(items) + "}"
        if isinstance(v, list):
            return "[" + ", ".join(map(render, v)) + "]"
        return json.dumps(v)

    text = render(value)
    assert choice < count
    return text


def key_count(value) -> int:
    if isinstance(value, dict):
        return len(value) + sum(map(key_count, value.values()))
    if isinstance(value, list):
        return sum(map(key_count, value))
    return 0


def repeated_keys(value):
    choices = st.integers(0, key_count(value) - 1)
    return st.builds(repeating_key, st.just(value), choices, json_values)


def second_base_line(text):
    lines = text.splitlines()
    copy = st.one_of(st.just(lines[0]), st.lists(st.sampled_from("qr01"), max_size=3).map(
        lambda labels: " ".join(["base:", *labels])))
    return st.builds(lambda at, line: "\n".join(lines[:at] + [line] + lines[at:]) + "\n",
                     st.integers(0, len(lines)), copy)


def check_rejected(args):
    result = check_ending(args)
    assert result.exit_code == 2, (args, result.output)


@given(text=mutated(ALGEBRA_SEED))
@FUZZ
def test_mutated_algebras(files, text):
    root, _ = files
    path = root / "mutated.alg"
    path.write_text(text)
    for command in (["decide"], ["complete"], ["represent"],
                    ["search", "--max-base", "2", "--node-budget", "300"]):
        check_ending(command + [str(path)])


@given(text=st.one_of(mutated(DUMP_SEED), mutated(JSON_DUMP_SEED)))
@FUZZ
def test_mutated_dumps(files, text):
    root, c2 = files
    path = root / "mutated.rep"
    path.write_text(text)
    check_ending(["verify", c2, str(path)])


@given(text=st.one_of(repeated_keys(json.loads(JSON_DUMP_SEED)), second_base_line(DUMP_SEED)))
@FUZZ
def test_dumps_with_a_repeated_key_or_base_line(files, text):
    root, c2 = files
    path = root / "repeated.rep"
    path.write_text(text)
    check_rejected(["verify", c2, str(path)])


@given(text=repeated_keys(MODEL_SEED))
@FUZZ
def test_models_with_a_repeated_key(files, text):
    root, _ = files
    path = root / "repeated.json"
    path.write_text(text)
    check_rejected(["lambek", "eval", "--", "p*q |- q\\p", str(path)])


@given(model=models)
@settings(max_examples=40, deadline=None)
def test_eval_models(files, model):
    root, _ = files
    path = root / "model.json"
    path.write_text(json.dumps(model))
    check_ending(["lambek", "eval", "--", "p*q |- q\\p", str(path)])


@given(text=mutated(SEQUENT_SEED))
@FUZZ
def test_mutated_sequents(text):
    check_ending(["lambek", "prove", "--node-budget", "2000", "--", text])
    check_ending(["lambek", "counter", "--max-base", "2", "--node-budget", "300", "--", text])


@given(text=mutated("<,>=,neq"))
@FUZZ
def test_mutated_point_algebra_generators(text):
    check_ending(["pointalg", f"--generators={text}", "--max-base", "2", "--node-budget", "300"])
