"""Child process of the benchmark: import the CLI, note when it is ready, run one command.

    python3 perfbench/launch.py READY_FILE [--trace SPANS_FILE RUN_ID] -- [CLI ARGS...]

READY_FILE receives a JSON object holding the CLOCK_MONOTONIC time at
which ``torusbridge.cli`` had been imported; the parent subtracts its own
spawn time to get the set-up time.  With no CLI arguments the process
stops there (the benchmark's warm-up).  With ``--trace`` the module
boundaries listed in tracer.py are wrapped before the command runs, and
the spans are written to SPANS_FILE when it has finished.

The package is imported from the ``src`` directory next to this one and
from nowhere else, so an installed copy can never be measured instead.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    ready_file, *trace = opts  # trace: [] or ["--trace", SPANS_FILE, RUN_ID]
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)

    if trace:
        import tracer

        t0 = time.perf_counter()
        with tracer.ImportTimer("scipy") as scipy_timer:
            from torusbridge import cli
        import_s = time.perf_counter() - t0
    else:
        from torusbridge import cli
    ready = time.monotonic()

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: torusbridge was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    with open(ready_file, "w") as fh:
        json.dump({"ready": ready}, fh)
    if not cli_args:
        return 0
    if not trace:
        return cli.main(cli_args)

    spans_file, run_id = trace[1], int(trace[2])
    recorder = tracer.Tracer(run_id)
    recorder.install()
    rc = recorder.call(cli.main, "cli.main", None, (cli_args,), {})
    with open(spans_file, "w") as fh:
        json.dump({
            "run": run_id,
            "import_s": import_s,
            "scipy_import_s": scipy_timer.seconds,
            "absent": recorder.absent,
            "spans": recorder.spans,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
