"""The four workloads: their job lists, generated inputs and expectations.

Every workload is a fixed job list whose inputs follow from the seed.  A
job is one call into bqual's public entry points: ``evaluate`` followed by
``render_report`` (JSON and table), or the ``explore`` command of the CLI,
which writes a transition dump.  The expectations are the corpus golden
fractions of the acceptance criteria or the jump clock's closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import jumpclock

CORPUS_DIR = Path("tests") / "corpus"
CORPUS_FILES = ("CM1.mch", "CM2.mch", "CM3.mch", "CM4.mch", "CM5.mch",
                "goals-cm1.txt", "cm5-plan.json")

# (|H|, K): the set_time targets are |H| seeded hours times minutes 0..K-1.
# Each size keeps the workload's dominant layer dominant while one pass
# stays between one and two seconds on a 2-core machine, so that a run
# takes the median of about ten passes.
JUMP_SIZES = {
    "trials-large": (1, 2),
    "align-required": (1, 3),
    "explore-cm6": (2, 60),
}

ONE = Fraction(1)
HALF = Fraction(1, 2)
FUNCTIONAL = ("tfcomp", "pfcomp", "tfcorr", "pfcorr", "tfappr", "pfappr")
FAULT = ("fault_tolerance", "recoverability", "functional_analysability",
         "fault_analysability", "modularity")


@dataclass(frozen=True)
class Job:
    """``kind`` is "evaluate" (``params`` are EvaluationConfig fields) or
    "dump" (``params`` are the machine and output paths of ``bqual explore``).

    ``expect`` holds: ``exact`` metric -> Fraction, ``below`` metric ->
    strict upper bound, ``summary`` key -> value, ``capacity``,
    ``not_computed`` metric names, and ``lines`` for a dump.
    """

    name: str
    kind: str
    params: dict
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    files: dict  # generated input path -> text, written before any pass


def _corpus(root: Path, seed: int, workdir: Path) -> Workload:
    corpus = root / CORPUS_DIR
    cm1 = str(corpus / "CM1.mch")
    goals = str(corpus / "goals-cm1.txt")

    def against_cm1(name: str, expect: dict) -> Job:
        params = {
            "machine_path": str(corpus / f"{name}.mch"),
            "reference_path": cm1,
            "goals_path": goals,
            "seed": seed,
        }
        return Job(name, "evaluate", params, expect)

    jobs = (
        # Criteria 1 and 7: CM1 against itself.
        against_cm1("CM1", {
            "exact": {
                **{m: ONE for m in FUNCTIONAL},
                "invariant_satisfiability": ONE,
                "accountability": ONE,
                "reusability": 1 - Fraction(3, 1440),
                "goal_appropriateness": HALF,
            },
            "capacity": 2880,
        }),
        # Criterion 2.
        against_cm1("CM2", {"exact": {
            "tfcomp": Fraction(1394, 1440),
            "pfcomp": Fraction(7062, 7200),
            "tfcorr": Fraction(1394, 1417),
            "pfcorr": Fraction(7062, 7085),
            "tfappr": Fraction(1394, 1440),
            "pfappr": Fraction(5645, 5760),
        }}),
        # Criterion 3.
        against_cm1("CM3", {"exact": {"tfappr": ONE}, "below": {"tfcomp": ONE}}),
        # Criterion 4.
        against_cm1("CM4", {
            "exact": {
                "invariant_satisfiability": Fraction(1440, 1465),
                "availability": Fraction(1, 3),
            },
            "summary": {"transitions": 1465, "violating_transitions": 25},
        }),
        against_cm1("CM5", {}),
        # Criterion 5: the explicit plan replaces the seeded trials.
        Job("CM1-plan", "evaluate", {
            "machine_path": cm1,
            "plan_path": str(corpus / "cm5-plan.json"),
        }, {"exact": {
            "fault_tolerance": 1 - Fraction(1, 1050),
            "recoverability": Fraction(1049, 1440),
            "functional_analysability": 1 - Fraction(1050, 1440),
            "fault_analysability": ONE,
        }}),
    )
    return Workload(jobs, {})


def _trials_large(root: Path, seed: int, workdir: Path) -> Workload:
    hours_size, minutes = JUMP_SIZES["trials-large"]
    hours = jumpclock.draw_hours(seed, hours_size)
    machine = workdir / "jump.mch"
    corpus = root / CORPUS_DIR
    job = Job("jump-vs-CM1", "evaluate", {
        "machine_path": str(machine),
        "reference_path": str(corpus / "CM1.mch"),
        "goals_path": str(corpus / "goals-cm1.txt"),
        "seed": seed,
    }, {
        "summary": jumpclock.expected_summary(hours, minutes),
        "capacity": jumpclock.CLOCK_STATES + jumpclock.transitions(hours, minutes),
        "exact": {
            **jumpclock.expected_exact(hours, minutes),
            **jumpclock.expected_against_cm1(hours, minutes),
            # G1 holds at 0:00; G2 needs hour > 26, outside the invariant,
            # which every derived state satisfies.
            "goal_appropriateness": HALF,
        },
    })
    return Workload((job,), {str(machine): jumpclock.machine_text(hours, minutes)})


def _align_required(root: Path, seed: int, workdir: Path) -> Workload:
    hours_size, minutes = JUMP_SIZES["align-required"]
    hours = jumpclock.draw_hours(seed, hours_size)
    machine = workdir / "reference.mch"
    dump = workdir / "required.jsonl"
    n = jumpclock.transitions(hours, minutes)
    summary = jumpclock.expected_summary(hours, minutes)
    jobs = (
        Job("explore-reference", "dump",
            {"machine": str(machine), "out": str(dump)},
            {"summary": summary, "lines": n}),
        Job("CM2-required", "evaluate", {
            "machine_path": str(root / CORPUS_DIR / "CM2.mch"),
            "required_path": str(dump),
            "seed": seed,
        }, {
            "summary": {"states": jumpclock.CM2_STATES,
                        "transitions": jumpclock.CM2_TRANSITIONS},
            "exact": jumpclock.expected_cm2_against(hours, minutes),
        }),
    )
    return Workload(jobs, {str(machine): jumpclock.machine_text(hours, minutes)})


def _explore_cm6(root: Path, seed: int, workdir: Path) -> Workload:
    hours_size, minutes = JUMP_SIZES["explore-cm6"]
    hours = jumpclock.draw_hours(seed, hours_size)
    machine = workdir / "jump.mch"
    job = Job("jump-explore", "evaluate", {"machine_path": str(machine), "trials": 0}, {
        "summary": jumpclock.expected_summary(hours, minutes),
        "capacity": jumpclock.CLOCK_STATES + jumpclock.transitions(hours, minutes),
        "exact": jumpclock.expected_exact(hours, minutes),
        "not_computed": (*FUNCTIONAL, "availability", *FAULT, "goal_appropriateness"),
    })
    return Workload((job,), {str(machine): jumpclock.machine_text(hours, minutes)})


BUILDERS = {
    "corpus": _corpus,
    "trials-large": _trials_large,
    "align-required": _align_required,
    "explore-cm6": _explore_cm6,
}


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    return BUILDERS[name](root, seed, workdir)
