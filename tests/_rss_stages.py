"""Where the memory of one `arraylight simulate` run goes, stage by stage.

Imports the package, then runs the stages of `simulate` on the given
config in this process, as cli.cmd_simulate runs them: prepare (config
load, array, drive, generator and initial state), propagate, waveform,
angular map, eigenmodes, then each CSV, written to a temporary directory.
For the import and after each stage it prints the process's peak resident
size from getrusage (what perfbench reports as peak_rss_mb) and the
stage's tracemalloc allocation peak above the memory live before it.
tracemalloc's own bookkeeping adds a little to the resident sizes.
pytest does not collect this file (its name has no test_ prefix).

    PYTHONPATH=src python tests/_rss_stages.py CONFIG
"""

import resource
import sys


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(config: str) -> int:
    import os
    import tempfile
    import tracemalloc

    from arraylight import cli
    from arraylight.config import RunConfig

    def stage(name, fn, *args, **kwargs):
        tracemalloc.start()
        live = tracemalloc.get_traced_memory()[0]
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        print(f"{name:<18} {_rss_mb():12.2f} {peak / 2**20:14.2f}")
        return result

    with tempfile.TemporaryDirectory(prefix="rss_stages_") as out:
        def prepare():
            cfg = RunConfig.from_yaml(config)
            return (cfg, *cli._prepare(cfg, out), cfg.time_grid())

        cfg, array, drive, ham, psi0, times = stage("prepare", prepare)
        traj, _ = stage("propagate", cli._propagate, cfg, ham, psi0, times)
        wave = stage("waveform", cli.waveform, traj, allow_truncation=True)
        u_peak = float(wave.u_grid[int(wave.flux_total.argmax())])
        amap = stage("angular map", cli.angular_map, traj, u_peak,
                     grid=cfg.build_grid())
        stage("eigenmodes", cli.eigenmodes, ham)
        header = cli._header_lines(cfg)
        stage("trajectory.csv", traj.to_csv,
              os.path.join(out, "trajectory.csv"), header_lines=header)
        stage("waveform.csv", wave.to_csv,
              os.path.join(out, "waveform.csv"), header_lines=header)
        stage("angular_map.csv", amap.to_csv,
              os.path.join(out, "angular_map.csv"),
              header_lines=header + [f"u {u_peak!r}"])
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{'stage':<18} {'peak RSS MB':>12} {'above live MB':>14}")
    import arraylight.cli  # noqa: F401  (the import's resident size)
    print(f"{'import':<18} {_rss_mb():12.2f} {'-':>14}")
    sys.exit(main(sys.argv[1]))
