"""One round of the benchmark: a fresh interpreter running CLI commands.

Run as `python3 bench_worker.py` with zdgspec on PYTHONPATH and a JSON job
on stdin: {"commands": [[argv...], ...], "trace": bool, "meta": bool}.
Each command is one in-process `zdgspec.cli.main(argv)` call with stdout
and stderr captured, as a user's CLI call would run it, except that the
commands of a round share one interpreter. Writes one JSON result to stdout.

Times are CLOCK_MONOTONIC, which the parent shares, so the parent measures
set-up from the moment it spawned this process. The speed probe of
bench_speed.py runs once after set-up and once after every command, so
every command has a probe right before and right after it.
"""

import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    import zdgspec.cli as cli

    cli.build_parser()
    t_ready = now()

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    from bench_speed import probe

    job = json.loads(sys.stdin.read())
    run = cli.main
    tracer = None
    if job["trace"]:
        import bench_trace
        from zdgspec.numtheory import factorize  # the cached original

        tracer = bench_trace.Tracer()
        tracer.install()
        run = tracer.span(cli.main, bench_trace.COMMAND)

    probes = [probe()]
    commands = []
    for i, argv in enumerate(job["commands"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.command = i
        t0 = now()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = run(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
        t1 = now()
        probes.append(probe())
        commands.append(
            {"latency_s": t1 - t0, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}
        )
    result = {
        "t_ready": t_ready,
        "probes": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "commands": commands,
    }
    if tracer:
        info = factorize.cache_info()
        result["factorize_hits"] = info.hits
        result["factorize_misses"] = info.misses
        result["spans"] = tracer.spans
    if job["meta"]:
        import platform

        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["meta"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "zdgspec": os.path.dirname(cli.__file__),
        }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
