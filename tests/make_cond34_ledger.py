"""Regenerate tests/data/cond34_ledger.json.

The ledger freezes, per corpus algebra, the pass/fail status of the two
residual conditions for the default pipeline (auto unitalization), each
read off its pair-set definition in tests/oracles.py rather than by the
library's checker.  The acceptance suite fails on any status change, so the
file must only be regenerated deliberately:

    python tests/make_cond34_ledger.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from corpus import (  # noqa: E402
    build_n4_corpus,
    build_small_corpus,
    check_representation_pairwise,
    serialize,
)

from resq import relrep  # noqa: E402


def ledger_entries(algebras):
    """The ledger entry of each algebra, keyed by its serialization."""
    entries = {}
    for A in algebras:
        interp = relrep.represent_pipeline(A).interpretation
        witnesses = dict(check_representation_pairwise(A, interp))
        entries[serialize(A)] = {
            name: witnesses[name] is None for name in ("left-residual", "right-residual")
        }
    return entries


def main() -> None:
    target = Path(__file__).parent / "data" / "cond34_ledger.json"
    target.parent.mkdir(exist_ok=True)
    entries = ledger_entries(build_small_corpus() + build_n4_corpus())
    target.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} ({len(json.loads(target.read_text()))} entries)")


if __name__ == "__main__":
    main()
