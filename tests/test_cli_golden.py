"""Golden CLI transcripts: stdout, stderr and the exit code, byte for byte.

The transcripts in tests/data/cli_golden/transcripts.json pin decide,
complete, represent, verify and search in both formats on four algebras: C2,
one without residuals, one that fails associativity and the one-element
algebra.  They also pin `lambek prove` (with and without --trace) on a
derivable and an underivable sequent, `lambek counter` found and exhausted,
`lambek eval` on a model where the sequent holds, one where it fails and one
that lacks an atom, and `pointalg` found at base 3 ({<,>}), found at base 2
({<,=}) and exhausted ({<,>} up to base 2).  A refactor that changes any
output line, JSON key or exit code fails here.  To re-record deliberately:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from resq.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden"
TRANSCRIPTS = DATA / "transcripts.json"

# (algebra file, dump file for verify, search --max-base)
ALGEBRAS = [
    ("c2.alg", "c2.dump", "3"),
    ("no_residual.alg", "two_elements.dump", "3"),
    ("non_associative.alg", "two_elements.dump", "3"),
    ("one.alg", "one.dump", "1"),
]

# (--generators, --max-base)
POINT_PROBES = [("<,>", "3"), ("<,=", "3"), ("<,>", "2")]

DERIVABLE = "p/q, q |- p"
UNDERIVABLE = "p*q |- q*p"
MODELS = ["holds.model.json", "fails.model.json", "missing_atom.model.json"]


def cases() -> list[list[str]]:
    """Every argument list, with files named relative to the data directory."""
    out = []
    for alg, dump, max_base in ALGEBRAS:
        for fmt in ("text", "json"):
            tail = ["--format", fmt]
            out += [
                ["decide", alg, *tail],
                ["complete", alg, *tail],
                ["represent", alg, *tail],
                ["represent", alg, "--unitalize", "off", *tail],
                ["verify", alg, dump, *tail],
                ["search", alg, "--max-base", max_base, *tail],
            ]
    for fmt in ("text", "json"):
        tail = ["--format", fmt]
        for sequent in (DERIVABLE, UNDERIVABLE):
            out += [["lambek", "prove", sequent, *tail],
                    ["lambek", "prove", sequent, "--trace", *tail]]
        out += [["lambek", "counter", UNDERIVABLE, "--max-base", "2", *tail],
                ["lambek", "counter", DERIVABLE, "--max-base", "2", *tail]]
        out += [["lambek", "eval", UNDERIVABLE, model, *tail] for model in MODELS]
        out += [["pointalg", "--generators", generators, "--max-base", max_base, *tail]
                for generators, max_base in POINT_PROBES]
    return out


def run(args: list[str]) -> dict:
    files = {name for name, *_ in ALGEBRAS} | {dump for _, dump, _ in ALGEBRAS} | set(MODELS)
    argv = [str(DATA / a) if a in files else a for a in args]
    result = CliRunner().invoke(main, argv, env={"RESQ_NODE_BUDGET": None})
    return {"stdout": result.stdout, "stderr": result.stderr, "exit": result.exit_code}


def recorded() -> dict:
    return json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("args", cases(), ids="-".join)
def test_cli_output_matches_the_transcript(args):
    assert run(args) == recorded()[" ".join(args)]


def test_every_transcript_has_a_case():
    assert sorted(recorded()) == sorted(" ".join(args) for args in cases())


if __name__ == "__main__":
    transcripts = {" ".join(args): run(args) for args in cases()}
    TRANSCRIPTS.write_text(json.dumps(transcripts, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TRANSCRIPTS} ({len(transcripts)} transcripts)")
