"""Output checks for every job of every pass.

A job fails when it raised, when its report does not validate against
``src/bqual/report.schema.json``, when an expected value differs, or when
its output differs from the first pass with the same seed once the
metering fields are dropped.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import jsonschema

from workloads import Job

NOT_COMPUTED = "not-computed"


def strip_metering(obj: dict, fields) -> dict:
    """Copy of a report (or explore summary) without its metering values."""
    out = {k: v for k, v in obj.items() if k not in fields and k != "metering"}
    if isinstance(out.get("metrics"), dict):
        out["metrics"] = {k: v for k, v in out["metrics"].items() if k not in fields}
    return out


class Checker:
    def __init__(self, schema_path: Path, metering_fields):
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft7Validator(schema)
        self.metering_fields = tuple(metering_fields)
        self.first: dict[str, object] = {}

    def check(self, job: Job, record: dict) -> list[str]:
        if record["error"] is not None:
            return [record["error"].strip().splitlines()[-1]]
        output = record["output"]
        if job.kind == "evaluate":
            problems, comparable = self._evaluate(job, output)
        else:
            problems, comparable = self._dump(job, output)
        first = self.first.setdefault(job.name, comparable)
        if comparable != first:
            problems.append("output differs from the first pass with this seed")
        return problems

    def _evaluate(self, job: Job, output: dict) -> tuple[list[str], object]:
        report = json.loads(output["report"])
        problems = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        expected_title = f"Quality of {report.get('machine')}"
        if output["table"].splitlines()[:1] != [expected_title]:
            problems.append("table does not start with its title line")
        problems += _expectations(job.expect, report)
        return problems, strip_metering(report, self.metering_fields)

    def _dump(self, job: Job, output: dict) -> tuple[list[str], object]:
        problems = []
        if output["exit_code"] != 0:
            problems.append(f"explore exited with {output['exit_code']}")
        summary = json.loads(output["stdout"])
        problems += _expectations({"summary": job.expect.get("summary", {})}, summary)
        if output["file_lines"] != job.expect["lines"]:
            problems.append(
                f"dump has {output['file_lines']} lines, expected {job.expect['lines']}"
            )
        return problems, (strip_metering(summary, self.metering_fields), output["sha256"])


def _expectations(expect: dict, report: dict) -> list[str]:
    problems = []
    for key, want in expect.get("summary", {}).items():
        got = report.get("summary", {}).get(key)
        if got != want:
            problems.append(f"summary.{key} = {got!r}, expected {want!r}")
    exact = report.get("exact", {})
    for name, want in expect.get("exact", {}).items():
        got = Fraction(exact[name]) if name in exact else None
        if got != want:
            problems.append(f"{name} = {got}, expected {want}")
    for name, bound in expect.get("below", {}).items():
        got = Fraction(exact[name]) if name in exact else None
        if got is None or not got < bound:
            problems.append(f"{name} = {got}, expected below {bound}")
    if "capacity" in expect and report["metrics"].get("capacity") != expect["capacity"]:
        problems.append(
            f"capacity = {report['metrics'].get('capacity')}, expected {expect['capacity']}"
        )
    for name in expect.get("not_computed", ()):
        if report["metrics"].get(name) != NOT_COMPUTED:
            problems.append(f"{name} was computed, expected {NOT_COMPUTED}")
    return problems
