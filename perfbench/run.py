"""eegx benchmark: closed-loop passes of one workload, timed, checked.

    python3 perfbench/run.py --workload report --seed 0 --seconds 10 --trace 0

Run from the repository root. One process, one client, no extra threads:
each pass starts when the previous one has finished. The run makes its
inputs from ``--seed`` (set-up), then runs passes until ``--seconds``
have elapsed and at least two passes are done, since the second pass is
compared byte for byte with the first. Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 1`` passes
alternate untraced and traced, and the metrics are the per-layer ones.
See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 2
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import eegx.cli; print(time.perf_counter() - t)"
)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = str(path).startswith(mnt.rstrip("/") + "/") or str(path) == mnt
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def _blas_library() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):  # the config layout differs across numpy versions
        return "unknown"


def environment(seed: int, recording_seeds: list[int], blas_preset: dict) -> dict:
    import numpy as np
    import scipy

    flags = []
    eegx_threads = os.environ.get("EEGX_THREADS")
    if eegx_threads not in (None, "1"):
        flags.append(f"EEGX_THREADS={eegx_threads} (must be unset or 1)")
    flags += [f"{v}={val} (set by caller)" for v, val in blas_preset.items() if val != "1"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_library(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "EEGX_THREADS": eegx_threads,
        "workload_seed": seed,
        "recording_seeds": recording_seeds,
        "git_commit": _git_commit(),
        "output_fs": _filesystem(OUT),
        "flags": flags,
    }


def _outdir_size(outdir: Path) -> tuple[int, int]:
    files = [p for p in outdir.rglob("*") if p.is_file()] if outdir.exists() else []
    return len(files), sum(p.stat().st_size for p in files)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "eegx" / "__init__.py").is_file():
        print(f"perfbench: no eegx sources under {src}", file=sys.stderr)
        return 2

    # One process, no extra threads: size the BLAS pools before numpy loads.
    blas_preset = {v: os.environ.get(v) for v in BLAS_VARS if v in os.environ}
    for v in BLAS_VARS:
        os.environ.setdefault(v, "1")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import eegx.cli  # noqa: F401  (the import is part of set-up time)
    import_times = [time.perf_counter() - t0]
    if not Path(eegx.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: eegx imported from {eegx.__file__}, not {src}", file=sys.stderr)
        return 2
    # A module imports once per process, so the other samples come from
    # fresh interpreters, started one at a time.
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                               capture_output=True, text=True, check=True, timeout=120)
        import_times.append(float(probe.stdout))
    import_s = statistics.median(import_times)

    import workloads
    from tracer import Tracer

    workdir = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        input_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            w.make_inputs()
            input_times.append(time.perf_counter() - t)
        inputs_s = statistics.median(input_times)

        tracer = Tracer() if args.trace else None
        walls = {False: [], True: []}
        cpus = {False: [], True: []}
        outcomes = []
        fingerprints = []
        written = []
        first = workdir / "first"
        start = time.perf_counter()
        k = 0
        while k < MIN_PASSES or time.perf_counter() - start < args.seconds:
            outdir = workdir / "pass"
            traced = tracer is not None and k % 2 == 1
            t, c = time.perf_counter(), time.process_time()
            with tracer.traced_pass() if traced else nullcontext():
                outcomes += w.run_pass(outdir)
            walls[traced].append(time.perf_counter() - t)
            cpus[traced].append(time.process_time() - c)
            fingerprints.append(w.fingerprint(outdir))
            written.append(_outdir_size(outdir))
            if k > 0:
                outcomes.append(workloads.Outcome(
                    f"identical_pass_{k}", fingerprints[k] == fingerprints[0]))
            if k == 0 and outdir.exists():
                outdir.rename(first)
            shutil.rmtree(outdir, ignore_errors=True)
            k += 1
            if k == MIN_PASSES:
                # The peak after a fixed number of passes: later passes can
                # only raise it, and their number depends on machine speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes += w.checks(first)
        recording_seeds = w.recording_seeds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = walls[False]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    values = {
        "wall_s": statistics.median(untraced),
        "setup_s": import_s + inputs_s,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / attempted,
        "passes": len(untraced),
        "import_s": import_s,
        "inputs_s": inputs_s,
    }
    if len(untraced) >= 2:
        values["wall_s_q1"], _, values["wall_s_q3"] = statistics.quantiles(untraced, n=4)
    units = {"passes": "count", "import_s": "s", "inputs_s": "s", "error_rate": "ratio",
             "wall_s_q1": "s", "wall_s_q3": "s"}
    if tracer is not None:
        values.update(tracer.layer_values())
        values["cli.files_written"] = statistics.mean(n for n, _ in written)
        values["cli.bytes_written"] = statistics.mean(b for _, b in written)
        values["trace.overhead_s"] = statistics.median(walls[True]) - values["wall_s"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]

    env = environment(args.seed, recording_seeds, blas_preset)
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.name}: {o.detail}")
    for name in sorted(units):
        if name in values:
            print(f"{name} = {values[name]:.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    for flag in env["flags"]:
        print(f"perfbench: flagged: {flag}", file=sys.stderr)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload,
        "env": env,
        "values": values,
        "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "pass_cpu_s": {"untraced": cpus[False], "traced": cpus[True]},
        "setup_samples_s": {"import": import_times, "inputs": input_times},
        "outcomes": [vars(o) for o in outcomes],
    }, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{tag}.spans.jsonl")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
