"""Runs one workload's passes in a fresh process and writes what it measured.

Started by ``run.py``; it imports bqual from ``src`` and nothing else that
the measured peak RSS would have to include.  A pass runs every job of the
workload once.  Untraced: one warm-up pass, then measured passes until
``--seconds`` have gone by, with the calibration kernel timed before and
after each job: the host's speed changes within a second, so the shorter
the interval a kernel timing stands for, the better it tracks.  Traced: a cold traced pass (for the explorer's
``ru_maxrss`` growth), the measured untraced passes, then one warm traced
pass that gives the per-layer metrics.  Output checks happen in the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bqual.cli as cli  # noqa: E402
from bqual import evaluation  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_job(job: workloads.Job) -> dict:
    if job.kind == "evaluate":
        report = evaluation.evaluate(evaluation.EvaluationConfig(**job.params))
        return {
            "report": evaluation.render_report(report, "json"),
            "table": evaluation.render_report(report, "table"),
        }
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["explore", "--machine", job.params["machine"],
                         "--out", job.params["out"]])
    return {"exit_code": code, "stdout": stdout.getvalue()}


def describe_dump(output: dict, path: str) -> None:
    """Line count and digest of the written dump, taken outside the timing."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as handle:
        for line in handle:
            digest.update(line)
            lines += 1
    output["file_lines"] = lines
    output["sha256"] = digest.hexdigest()


def run_pass(jobs, kind: str, tracer: Tracer | None = None, calibrate: bool = False) -> dict:
    gc.collect()  # no pass pays for the previous pass's garbage
    records = []
    before = calibration.measure() if calibrate else None
    for job in jobs:
        error = output = None
        span = tracer.begin_job(job.name) if tracer else None
        cpu0, wall0 = cpu_now(), time.perf_counter()
        try:
            output = run_job(job)
        except Exception:  # a failed job is counted, the pass goes on
            error = traceback.format_exc(limit=4)
        wall, cpu = time.perf_counter() - wall0, cpu_now() - cpu0
        if tracer:
            closed = tracer.end_job(span)
            wall = closed.end - closed.start
        if output is not None and job.kind == "dump":
            try:
                describe_dump(output, job.params["out"])
            except OSError as exc:
                error = f"cannot read the dump: {exc}"
        records.append({"name": job.name, "wall": wall, "cpu": cpu,
                        "output": output, "error": error})
        if calibrate:
            after = calibration.measure()
            records[-1]["kernel"] = (before[0] + after[0]) / 2
            records[-1]["kernel_cpu"] = (before[1] + after[1]) / 2
            before = after
    return {
        "kind": kind,
        "wall": sum(r["wall"] for r in records),
        "cpu": sum(r["cpu"] for r in records),
        "jobs": records,
    }


def traced_pass(jobs, kind: str) -> tuple[dict, Tracer]:
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        record = run_pass(jobs, kind, tracer)
    finally:
        tracer.uninstall()
    return record, tracer


def write_spans(tracer: Tracer, path: str) -> None:
    selfs = self_times(tracer.spans)
    with open(path, "w", encoding="utf-8") as handle:
        for index, (span, own) in enumerate(zip(tracer.spans, selfs)):
            handle.write(json.dumps({
                "id": index, "name": span.name, "layer": span.layer,
                "job": span.job, "parent": span.parent,
                "start": span.start, "end": span.end, "self": own,
                "counts": span.counts,
            }) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, ROOT, Path(args.workdir))
    for path, text in workload.files.items():
        Path(path).write_text(text, encoding="utf-8")
    jobs = workload.jobs

    passes = []
    result: dict = {}
    if args.trace:
        record, cold = traced_pass(jobs, "cold-traced")
        passes.append(record)
        result["cold_layers"] = layers.summarize(cold.spans, self_times(cold.spans))
    else:
        passes.append(run_pass(jobs, "warm-up"))

    started = time.perf_counter()
    while len(passes) == 1 or time.perf_counter() - started < args.seconds:
        passes.append(run_pass(jobs, "measured", calibrate=True))

    if args.trace:
        record, warm = traced_pass(jobs, "traced")
        passes.append(record)
        result["layers"] = layers.summarize(warm.spans, self_times(warm.spans))
        result["absent"] = warm.absent
        result["hook_errors"] = warm.hook_errors
        if args.spans:
            write_spans(warm, args.spans)

    result["passes"] = passes
    result["metering_fields"] = list(getattr(evaluation, "METERING_FIELDS", ()))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
