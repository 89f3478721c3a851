"""The output checks report every kind of wrong output."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from bqual.evaluation import METERING_FIELDS

import run
import worker
from checks import Checker
from workloads import CORPUS_DIR, Job

CM1 = str(Path(run.ROOT) / CORPUS_DIR / "CM1.mch")
RIGHT = {"exact": {"tfcomp": Fraction(1)}, "summary": {"transitions": 1440}}


@pytest.fixture(scope="module")
def output():
    job = Job("CM1", "evaluate", {"machine_path": CM1, "reference_path": CM1, "trials": 0})
    return worker.run_job(job)


def check(expect, *outputs):
    """Problems of each pass of one job with these expectations."""
    checker = Checker(Path(run.ROOT) / run.SCHEMA, METERING_FIELDS)
    job = Job("CM1", "evaluate", {}, expect)
    return [checker.check(job, {"error": None, "output": out}) for out in outputs]


def with_report(output, change):
    report = json.loads(output["report"])
    change(report)
    return {**output, "report": json.dumps(report)}


def test_right_output_passes(output):
    assert check(RIGHT, output, output) == [[], []]


def test_wrong_exact_fraction_is_reported(output):
    [problems] = check({"exact": {"tfcomp": Fraction(1, 2)}}, output)
    assert problems == ["tfcomp = 1, expected 1/2"]


def test_wrong_summary_count_is_reported(output):
    [problems] = check({"summary": {"transitions": 1441}}, output)
    assert problems == ["summary.transitions = 1440, expected 1441"]


def test_changed_second_pass_is_reported(output):
    def change(report):
        report["summary"]["states"] += 1

    changed = with_report(output, change)
    first, second = check({}, output, changed)
    assert first == []
    assert second == ["output differs from the first pass with this seed"]


def test_schema_violation_is_reported(output):
    broken = with_report(output, lambda report: report.pop("summary"))
    [problems] = check({}, broken)
    assert any(p.startswith("schema: ") for p in problems)


def test_raised_job_is_reported():
    checker = Checker(Path(run.ROOT) / run.SCHEMA, METERING_FIELDS)
    job = Job("CM1", "evaluate", {}, {})
    error = "Traceback (most recent call last):\nValueError: bad machine\n"
    assert checker.check(job, {"error": error, "output": None}) == ["ValueError: bad machine"]
