"""End-to-end and per-layer benchmark of the ``arraylight`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate-readme --seed 0 \
        --seconds 30 --trace 0

Each timed run is ``arraylight.cli.main([...])`` in a fresh worker process
(``worker.py``), so every run pays interpreter start, imports, BLAS start-up
and the far-field operator build the way a user's command does.  Workers
are started one after another (a closed loop with one client) until
``--seconds`` have passed.  The workload's configuration comes from
``--seed`` (``workloads.py``); every run's outputs are checked.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (the CLI call),
``setup_s`` (worker start through ``import arraylight`` and
``RunConfig.from_yaml``, also sampled by set-up-only workers) and
``peak_rss_mb``, each the median over the run's workers.  ``fail_rate`` is
printed with them and carried by ``attempted``/``failed``.
``--trace 1`` alternates untraced and traced workers and reports the
per-layer metrics of ``tracing.py`` plus ``trace.overhead_s``, the traced
minus the untraced median ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every sample, every span) goes to
``.perfbench_out/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Set-up-only workers per untraced run, on top of the set-up of each timed
# worker, so that set-up time has several samples even when a run fits
# only one or two CLI calls.
SETUP_PROBES = 3
# Every worker is stopped, and the run fails, this long after the start.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {name: ("s" if name.endswith("_s") else "count")
               for name in tracing.LAYER_METRICS}
LAYER_UNITS["trace.overhead_s"] = "s"


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def blas_threads() -> int:
    """Threads a user's BLAS gets by default: the usable cores."""
    return len(os.sched_getaffinity(0))


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "arraylight")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; source_digest identifies it
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Runner:
    """Starts workers one at a time and collects their records."""

    def __init__(self, workload: str, seed: int, work: str, threads: int,
                 deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = worker_env(threads)
        self.deadline = deadline
        self.config = os.path.join(work, "run.yaml")
        self.out = os.path.join(work, "out")
        self.result = os.path.join(work, "result.json")
        self.count = 0

    def write_config(self) -> None:
        import yaml
        with open(self.config, "w") as fh:
            yaml.safe_dump(workloads.make_config(self.workload, self.seed),
                           fh, sort_keys=False)

    def launch(self, setup_only=False, trace=False):
        """One worker; returns its record with ``setup_s`` filled in."""
        self.count += 1
        shutil.rmtree(self.out, ignore_errors=True)
        if os.path.exists(self.result):
            os.remove(self.result)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--config", self.config,
               "--command", workloads.subcommand(self.workload),
               "--out", self.out, "--result", self.result]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", f"{self.workload}-{self.seed}-{self.count}"]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("out of time before a worker could start")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.work,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"worker exceeded {timeout:.0f} s and was "
                             f"stopped", "exit_code": None}
        try:
            with open(self.result) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {"error": "worker wrote no record:\n"
                      + output.decode(errors="replace")[-2000:],
                      "exit_code": None}
        if "setup_end" in record:
            record["setup_s"] = record["setup_end"] - t_spawn
        if not setup_only:
            record["problems"] = self.check(record)
        return record

    def check(self, record) -> list:
        if record.get("error"):
            return [record["error"].strip().splitlines()[-1]]
        try:
            with open(os.path.join(self.out, "summary.json")) as fh:
                summary = json.load(fh)
        except (OSError, ValueError):
            summary = None
        return workloads.check_outputs(self.workload, self.seed,
                                       record.get("exit_code"), summary)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, work) -> dict:
    t_start = time.monotonic()
    threads = blas_threads()
    runner = Runner(args.workload, args.seed, work, threads,
                    t_start + HARD_LIMIT_S)
    runner.write_config()

    # untimed warm-up: compiles bytecode, fills the page cache, and reads
    # the library versions for the environment record
    warm = runner.launch(setup_only=True)
    if warm.get("error"):
        raise BenchmarkError("set-up failed:\n" + warm["error"])
    if not warm["arraylight_file"].startswith(SRC + os.sep):
        raise BenchmarkError(f"imported {warm['arraylight_file']}, "
                             f"not the checkout's package under {SRC}")
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = runner.launch(setup_only=True)
            if probe.get("error"):
                raise BenchmarkError("set-up failed:\n" + probe["error"])
            setup.append(probe["setup_s"])

    runs = []
    modes = (False, True) if args.trace else (False,)
    while (len(runs) < len(modes)
           or time.monotonic() - t_start < args.seconds):
        traced = modes[len(runs) % len(modes)]
        record = runner.launch(trace=traced)
        record["traced"] = traced
        runs.append(record)

    environment = {
        "commit": git_commit(), "source_digest": source_digest(),
        "python": platform.python_version(),
        **warm["environment"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": threads, "seed": args.seed,
        "workload": args.workload, "trace": args.trace,
        "runs": len(runs), "seconds": args.seconds,
    }
    return {"environment": environment, "setup_samples": setup,
            "runs": runs, "elapsed_s": time.monotonic() - t_start}


def report(args, record) -> dict:
    """Metrics of the run, printed one per line; returns the result object."""
    runs = record["runs"]
    ok = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(ok)
    for r in runs:
        if r["problems"]:
            print(f"FAILED run: {'; '.join(r['problems'])}")
    if not ok:
        raise BenchmarkError("every run failed")

    def line(name, samples, unit):
        s = stats.summarize(samples)
        text = (f"{name:30s} {s['median']:.6g} {unit}  median of {s['n']}"
                f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
        tail = stats.tail_percentile(samples)
        if tail is not None:
            text += f", p{tail[0]} {tail[1]:.6g}"
        print(text)
        return s["median"]

    metrics = {}
    plain = [r for r in ok if not r["traced"]]
    if not args.trace:
        samples = {
            "run_s": [r["run_s"] for r in plain],
            "setup_s": record["setup_samples"] + [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = _metric(line(name, samples[name], unit), unit)
    else:
        traced = [r for r in ok if r["traced"]]
        per_run = [tracing.layer_metrics(r["trace"]) for r in traced]
        for name in tracing.LAYER_METRICS:
            values = [m[name] for m in per_run if name in m]
            if len(values) == len(per_run) and values:
                metrics[name] = _metric(
                    line(name, values, LAYER_UNITS[name]), LAYER_UNITS[name])
            else:
                print(f"{name:30s} absent: a wrapped name is missing")
        for r in traced:
            if r["trace"]["missing"]:
                print("missing targets: " + ", ".join(r["trace"]["missing"]))
                break
        if plain and traced:
            overhead = (stats.summarize([r["run_s"] for r in traced])["median"]
                        - stats.summarize([r["run_s"] for r in plain])["median"])
            metrics["trace.overhead_s"] = _metric(overhead, "s")
            print(f"{'trace.overhead_s':30s} {overhead:.6g} s  traced minus "
                  f"untraced median run_s ({len(traced)} and {len(plain)} "
                  f"runs)")
    print(f"{'fail_rate':30s} {failed / len(runs):.6g} ratio  "
          f"({failed} of {len(runs)} runs)")
    return {"correct": failed == 0, "attempted": len(runs),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arraylight", "cli.py")):
        print(f"error: no arraylight sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        print(f"perfbench {args.workload} seed {args.seed} "
              f"trace {args.trace}", flush=True)
        record = measure(args, work)
        print("environment " + json.dumps(record["environment"]))
        result = report(args, record)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
