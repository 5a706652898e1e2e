"""Regenerate tests/data/cond34_ledger.json.

The ledger freezes, per corpus algebra, the pass/fail status of the two
residual conditions for the default pipeline (auto unitalization).  The
acceptance suite fails on any status change, so the file must only be
regenerated deliberately:

    python tests/make_cond34_ledger.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from corpus import build_n4_corpus, build_small_corpus  # noqa: E402

from resq import algebra, relrep, verifier  # noqa: E402


def ledger_entries():
    entries = {}
    for A in build_small_corpus() + build_n4_corpus():
        interp = relrep.represent_pipeline(A).interpretation
        report = verifier.check_representation(A, interp)
        entries[algebra.serialize(A)] = {
            "left-residual": report.condition("left-residual").passed,
            "right-residual": report.condition("right-residual").passed,
        }
    return entries


def main() -> None:
    target = Path(__file__).parent / "data" / "cond34_ledger.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(ledger_entries(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} ({len(json.loads(target.read_text()))} entries)")


if __name__ == "__main__":
    main()
