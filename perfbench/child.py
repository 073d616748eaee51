"""Run one mfoc command in this process and write a report for run.py.

usage: child.py MODE REPORT -- MFOC_ARGS...

MODE is one of
  run    run the command; record only the set-up mark
  trace  run the command with every layer span of spans.py
  setup  stop right after the set-up mark and exit 0

The set-up mark is the time.monotonic() reading when the command's prior
is built (the grid prior, or the particle prior sample), which follows
argument parsing and config loading. CLOCK_MONOTONIC is shared by all
processes, so run.py subtracts its own reading taken before the spawn.
"""

from __future__ import annotations

import json
import sys
import time


class SetupDone(Exception):
    pass


def main() -> int:
    mode, report_path, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace", "setup") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 64

    import numpy
    import mfoc.cli as cli

    report = {"numpy": numpy.__version__, "setup_mark": None}
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)

    def mark(fn):
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            if report["setup_mark"] is None:
                report["setup_mark"] = time.monotonic()
                if mode == "setup":
                    raise SetupDone
            return result

        return marked

    cli._initial_grid_path = mark(cli._initial_grid_path)
    cli.sample_prior = mark(cli.sample_prior)
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
