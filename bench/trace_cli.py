"""Run ``resq`` under the tracer and write the trace summary to a file.

    python bench/trace_cli.py SUMMARY.json SUBCOMMAND [ARGS...]

Behaves like ``python -m resq.cli SUBCOMMAND [ARGS...]`` (same output, same
exit code, same traceback on an uncaught error) and also writes the summary
of the traced calls made in this process.
"""

import json
import sys

from tracer import BudgetRecorder, Tracer


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = BudgetRecorder()
    recorder.install()
    tracer = Tracer(recorder)
    tracer.install()
    from resq import cli

    try:
        cli.main.main(args=argv, prog_name="resq")
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    main()
