"""bqual benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bqual is imported from ``src``.  Workloads
are ``corpus``, ``trials-large``, ``align-required`` and ``explore-cm6``
(see ``workloads.py``), or ``all`` to run the four in turn.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass.  A table for people comes first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (tracing off):

* ``wall_s``, ``cpu_s``: median wall and process CPU seconds (children
  included) per pass over the workload's job list, in a warm process.
* ``peak_rss_mb``: ``ru_maxrss`` of the workload's own fresh process.
* ``setup_s``, ``setup_rss_mb``: median wall time and RSS of a fresh
  interpreter that imports ``bqual.cli``, over several such interpreters.

The three times are given at the reference host speed: each job of a pass
and each import is scaled by the calibration kernel timed around it (see
``calibration.py``).  The table also prints them unscaled (``.raw``) and
the host's slowdown against the reference.

Failed jobs (raised, or failed an output check) are counted in ``failed``
out of ``attempted``; ``failed_frac`` is printed in the table.  The jobs
run in a child process (``worker.py``); this process only spawns,
checks and reports.  The benchmark's own tests run with
``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from checks import Checker  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "setup_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _) in layers.SPAN_METRICS.items()},
    "mutation.excluded_frac": "frac",
    **layers.PASS_METRICS,
}

SETUP_PROBES = 5
SETUP_PROBE = (
    "import resource\n"
    "import bqual.cli\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)
PROBE_TIMEOUT = 60
WORKER_TIMEOUT = 150
SCHEMA = Path("src") / "bqual" / "report.schema.json"
WORK_DIR = ".perfbench_tmp"
SPANS_DIR = ".perfbench_out"


class BenchmarkError(RuntimeError):
    pass


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(extra)
    return env


def check_checkout() -> None:
    needed = [ROOT / SCHEMA, ROOT / "src" / "bqual" / "__init__.py"]
    needed += [ROOT / workloads.CORPUS_DIR / name for name in workloads.CORPUS_FILES]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchmarkError(f"not a bqual checkout, missing: {', '.join(missing)}")


def probe(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=PROBE_TIMEOUT,
    )
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise BenchmarkError(f"import probe failed:\n{done.stderr}")
    return wall, done


def measure_setup() -> tuple[list[float], list[float], list[float]]:
    """Wall seconds, calibration kernel wall seconds (the mean of the kernel
    timed before and after) and RSS (MB) of fresh interpreters importing
    bqual.cli.  The first, unmeasured one writes the bytecode caches."""
    probe(["-c", SETUP_PROBE])
    walls, kernels, rss = [], [], []
    before = calibration.measure()
    for _ in range(SETUP_PROBES):
        wall, done = probe(["-c", SETUP_PROBE])
        after = calibration.measure()
        walls.append(wall)
        kernels.append((before[0] + after[0]) / 2)
        rss.append(int(done.stdout.split()[-1]) / 1024)
        before = after
    return walls, kernels, rss


def at_reference(seconds: float, kernel: float) -> float:
    """A time at the reference host speed, from the kernel time next to it."""
    return seconds * calibration.REFERENCE_S / kernel


def pass_at_reference(record: dict, time_key: str, kernel_key: str) -> float:
    """A pass's time at the reference host speed, scaled job by job."""
    return sum(at_reference(job[time_key], job[kernel_key]) for job in record["jobs"])


def run_worker(workload: str, workdir: Path, seed: int, seconds: float, trace: int) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir), "--out", str(out),
    ]
    if trace:
        spans = ROOT / SPANS_DIR
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"spans-{workload}-seed{seed}.jsonl")]
    try:
        # The hash seed follows the benchmark seed, so one seed is one run.
        env = child_env(PYTHONHASHSEED=str(seed % 2**32))
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT)
        if done.returncode != 0:
            raise BenchmarkError(f"worker exited with {done.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((ROOT / WORK_DIR).iterdir()):
            (ROOT / WORK_DIR).rmdir()


def check_passes(workload: workloads.Workload, result: dict) -> tuple[int, int, list[str]]:
    checker = Checker(ROOT / SCHEMA, result["metering_fields"])
    jobs = {job.name: job for job in workload.jobs}
    attempted = failed = 0
    messages = []
    for number, record in enumerate(result["passes"]):
        for job_record in record["jobs"]:
            attempted += 1
            try:
                problems = checker.check(jobs[job_record["name"]], job_record)
            except (KeyError, ValueError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                failed += 1
                messages += [f"pass {number} {job_record['name']}: {p}" for p in problems]
    return attempted, failed, messages


def excluded_frac(result: dict) -> float:
    """Trial exclusions over metric slots (4 per trial) in the traced pass."""
    excluded = slots = 0
    for job in result["passes"][-1]["jobs"]:
        if not job["output"] or "report" not in job["output"]:
            continue
        report = json.loads(job["output"]["report"])
        mutation = report["provenance"].get("mutation", {})
        if mutation.get("mode") == "seeded":
            excluded += sum(report["trial_exclusions"].values())
            slots += len(report["trial_exclusions"]) * mutation["trials"]
    return excluded / slots if slots else 0.0


def run_one(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, int, int]:
    """Print the table for one workload; return metrics, attempted, failed."""
    workdir = ROOT / WORK_DIR / f"{name}-{os.getpid()}"
    workload = workloads.build(name, seed, ROOT, workdir)
    if not trace:
        setup_walls, setup_kernels, setup_rss = measure_setup()
    result = run_worker(name, workdir, seed, seconds, trace)
    attempted, failed, messages = check_passes(workload, result)
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    measured = [p for p in result["passes"] if p["kind"] == "measured"]
    walls = [p["wall"] for p in measured]

    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"passes {len(measured)} measured of {len(result['passes'])}")
    if not trace:
        cpus = [p["cpu"] for p in measured]
        kernels = [job["kernel"] for p in measured for job in p["jobs"]]
        values = {
            "wall_s": (statistics.median(
                pass_at_reference(p, "wall", "kernel") for p in measured), len(walls)),
            "cpu_s": (statistics.median(
                pass_at_reference(p, "cpu", "kernel_cpu") for p in measured), len(cpus)),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, 1),
            "setup_s": (statistics.median(map(at_reference, setup_walls, setup_kernels)),
                        len(setup_walls)),
            "setup_rss_mb": (statistics.median(setup_rss), len(setup_rss)),
        }
        rows = [(m, v, E2E_UNITS[m], n) for m, (v, n) in values.items()]
        rows += [
            ("failed_frac", failed / attempted, "frac", attempted),
            ("wall_s.raw", statistics.median(walls), "s", len(walls)),
            ("cpu_s.raw", statistics.median(cpus), "s", len(cpus)),
            ("setup_s.raw", statistics.median(setup_walls), "s", len(setup_walls)),
            ("host_slowdown", statistics.median(kernels + setup_kernels)
             / calibration.REFERENCE_S, "x", len(kernels) + len(setup_kernels)),
        ]
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, (v, _) in values.items()}
    else:
        values = dict(result["layers"])
        values["explorer.rss_growth_mb"] = result["cold_layers"]["explorer.rss_growth_mb"]
        # All trace.* times are raw, like the layer times: the overhead is
        # the traced pass minus the untraced median, one pass against a
        # median, so it is within the host's noise.
        values["trace.untraced_wall_s"] = statistics.median(walls)
        values["trace.overhead_s"] = (
            values["trace.pass_wall_s"] - values["trace.untraced_wall_s"]
        )
        values["mutation.excluded_frac"] = excluded_frac(result)
        absent = set(layers.absent_metrics(result["absent"]))
        rows = [(m, values[m], u, "absent" if m in absent else 1)
                for m, u in PER_LAYER_UNITS.items()]
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}
        parts = sum(values[f"share.{layer}"] for layer in (*layers.LAYERS, "unattributed"))
        print(f"layer shares sum to {parts:.9f} of the traced pass "
              f"({values['trace.pass_wall_s']:.4f} s); tracing overhead "
              f"{values['trace.overhead_s']:+.4f} s over the untraced median "
              "(raw times)")
        for span in result["absent"]:
            print(f"absent span: {span}")
        for error in result["hook_errors"]:
            print(f"hook error: {error}", file=sys.stderr)
    print(f"  {'metric':<32} {'value':>14}  {'unit':<6} samples")
    for metric, value, unit, samples in rows:
        print(f"  {metric:<32} {value:>14.6g}  {unit:<6} {samples}")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
        metrics: dict = {}
        attempted = failed = 0
        for name in names:
            one, n, f = run_one(name, args.seed, args.seconds, args.trace)
            attempted += n
            failed += f
            if len(names) == 1:
                metrics = one
            else:
                metrics.update({f"{name}/{m}": v for m, v in one.items()})
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
