"""One fresh-process CLI call, timed from the inside.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src`` and
the BLAS thread variables already set, so numpy starts the way a user's
``arraylight`` command does.  The worker

1. imports ``arraylight`` and parses the config with ``RunConfig.from_yaml``
   (the end of set-up, stamped with the system-wide monotonic clock so the
   parent can subtract its own spawn time);
2. unless ``--setup-only``, calls ``arraylight.cli.main([...])`` and times it;
3. writes one JSON record, with the library versions, to ``--result``.

With ``--trace`` the wrappers of ``tracing.py`` are installed before the
config is parsed and the spans go into the record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None,
                        help="run id; record spans under it")
    args = parser.parse_args(argv)

    record = {"exit_code": None, "error": None}
    try:
        import arraylight
        import arraylight.cli
        tracer = None
        if args.trace is not None:
            import tracing
            tracer = tracing.Tracer(args.trace)
            tracing.install(tracer)
        arraylight.RunConfig.from_yaml(args.config)
        record["setup_end"] = time.monotonic()
        record["arraylight_file"] = arraylight.__file__
        if not args.setup_only:
            cli_args = [args.command, "--config", args.config,
                        "--out", args.out]
            t0 = time.perf_counter()
            record["exit_code"] = arraylight.cli.main(cli_args)
            record["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            record["trace"] = tracer.dump()
    except Exception:  # reported to the parent, which counts the failure
        record["error"] = traceback.format_exc()
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if record["error"] is None:
        record["environment"] = _environment()
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh)
    os.replace(tmp, args.result)
    return 0 if record["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
