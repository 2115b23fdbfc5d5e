"""The process that does the work of one benchmark op.

    python3 perfbench/child.py import
        Import ``simplepa.cli`` and print where the package came from.
    python3 perfbench/child.py op [--trace FILE] PA_ARGS...
        Run ``pa PA_ARGS...`` the way the ``pa`` console script does,
        ``sys.exit(simplepa.cli.main())``, optionally traced.
    python3 perfbench/child.py serve [--trace FILE]
        Read one ``pa`` argument list per stdin line (a JSON array), run it
        through ``simplepa.cli.main`` in this long-lived interpreter, and
        answer one JSON line per request: exit code, seconds spent in
        ``main``, the captured stdout/stderr and this process's peak RSS.

The package is imported from ``src/`` next to this directory, never from
an installed copy.  With ``--trace`` the per-name span totals are written
to FILE when the work ends.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"code": code, "s": elapsed, "out": out.getvalue(), "err": err.getvalue(), "rss_kb": rss_kb}


def serve(cli) -> None:
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        reply = _call_main(cli, json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    import simplepa.cli

    if mode == "import":
        print(simplepa.__file__)
        return 0
    tracer = None
    if argv[:1] == ["--trace"]:
        from tracer import Tracer

        tracer, trace_path, argv = Tracer(), argv[1], argv[2:]
        tracer.install()
    try:
        if mode == "op":
            return simplepa.cli.main(argv)
        if mode == "serve" and not argv:
            serve(simplepa.cli)
            return 0
        raise SystemExit("usage: child.py import | op [--trace FILE] ARGS | serve [--trace FILE]")
    finally:
        if tracer:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
