"""One benchmark repetition in a fresh interpreter.

Usage: python3 bench/rep.py SPEC.json

SPEC holds ``argvs`` (a list of cohercause argument lists, run in order
through ``cohercause.cli.main``; empty for a set-up-only process),
``trace`` (record layer spans) and ``result`` (where to write the
timings). The run stops at the first command that exits non-zero.
Times are ``time.monotonic`` readings, so the parent can subtract its
own reading taken before the spawn.
"""
import json
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t_import = time.monotonic()
    import cohercause.cli

    t_ready = time.monotonic()
    scipy_submodules = sum(1 for m in sys.modules if m.startswith("scipy."))
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    t_run = time.monotonic()
    for argv in spec["argvs"]:
        codes.append(cohercause.cli.main(argv))
        if codes[-1] != 0:
            break
    t_done = time.monotonic()
    out = {
        "import_start": t_import,
        "ready": t_ready,
        "run_s": t_done - t_run,
        "exit_codes": codes,
        "scipy_submodules": scipy_submodules,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
