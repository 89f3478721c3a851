"""End-to-end evaluation pipeline and report rendering.

``evaluate`` runs parse, exploration, functional metrics, invariant
metrics, fault injection and the usability metrics, and assembles a
QualityReport.  Metrics whose inputs are missing, whose denominators are
empty, or whose LTS a limit cut short come back as "not-computed" with a
reason instead of failing the whole run.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__
from .alignment import DEFAULT_SIZE_GUARD, AlignmentError
from .bmachine import MachineAST
from .explorer import (
    DEFAULT_MAX_STATES,
    DEFAULT_MAX_TRANSITIONS,
    ExplorationResult,
    explore,
)
from .lexer import word_count
from .lts import code_relations, read_transitions_jsonl
from .metrics import (
    DERIVED_CHARACTERISTICS,
    REPORT_GROUPS,
    GoalSpec,
    NotComputable,
    QualityReport,
    RequirementSpec,
    accountability,
    availability,
    capacity,
    functional,
    goal_appropriateness,
    invariant_satisfiability,
    learnability,
    reusability,
)
from .mutation import (
    FAULT_METRICS,
    MutationError,
    apply_plan,
    capped_counts,
    load_plan,
    modularity_sweep,
    per_operation_counts,
    plan_modularity,
    run_trials,
    trial_metrics,
)
from .parser import parse_machine, parse_predicate

SCHEMA_VERSION = 1
DEFAULT_WORD_LIMIT = 10_000
DEFAULT_TRIALS = 20
METERING_FIELDS = ("cpu_seconds", "peak_memory_bytes")

# The metrics that read the required transitions.
_FUNCTIONAL_METRICS = (
    "tfcomp", "pfcomp", "tfcorr", "pfcorr", "tfappr", "pfappr", "availability"
)
_TRUNCATED = "{} truncated by a limit; raise --max-states/--max-transitions"


class EvaluationError(ValueError):
    pass


@dataclass
class EvaluationConfig:
    machine_path: str
    required_path: str | None = None
    reference_path: str | None = None
    goals_path: str | None = None
    word_limit: int = DEFAULT_WORD_LIMIT
    max_states: int = DEFAULT_MAX_STATES
    max_transitions: int = DEFAULT_MAX_TRANSITIONS
    trials: int = DEFAULT_TRIALS
    n_extra: int | None = None
    n_missing: int | None = None
    seed: int | None = None
    plan_path: str | None = None
    size_guard: int = DEFAULT_SIZE_GUARD

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        env = os.environ.get("BQUAL_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise EvaluationError(
                    f"BQUAL_SEED must be an integer, got {env!r}"
                ) from exc
        return 0


def load_required(
    machine: MachineAST,
    *,
    required_path: str | None = None,
    reference_path: str | None = None,
    max_states: int = DEFAULT_MAX_STATES,
    max_transitions: int = DEFAULT_MAX_TRANSITIONS,
) -> RequirementSpec:
    """Required transitions from a transitions file or from exploring a
    reference machine whose variables match the target's; either way they
    come as a relation of arrays, and no transition object is built."""
    if (required_path is None) == (reference_path is None):
        raise EvaluationError(
            "exactly one of a transitions file or a reference machine is required"
        )
    if required_path is not None:
        with open(required_path, "r", encoding="utf-8") as handle:
            transitions = read_transitions_jsonl(
                handle, machine.variables, machine.element_sets
            )
        if not transitions:
            raise EvaluationError(f"{required_path}: no required transitions")
        return RequirementSpec(required_transitions=transitions, truncated=False)

    reference = parse_machine(Path(reference_path).read_text(encoding="utf-8"))
    if reference.variables != machine.variables:
        raise EvaluationError(
            f"reference machine {reference.name!r} declares variables "
            f"{list(reference.variables)} but {machine.name!r} declares "
            f"{list(machine.variables)}"
        )
    result = explore(
        reference,
        max_states=max_states,
        max_transitions=max_transitions,
        meter_memory=False,
    )
    return RequirementSpec(required_transitions=result, truncated=result.truncated)


_GOAL_LINE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+?)\s*$")


def parse_goals(text: str, machine: MachineAST) -> GoalSpec:
    """One named goal per line, ``NAME: <predicate>``; blank lines skipped."""
    goals = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        match = _GOAL_LINE.match(line)
        if not match:
            raise EvaluationError(
                f"goals line {lineno}: expected 'NAME: <predicate>'"
            )
        name, source = match.groups()
        if name in seen:
            raise EvaluationError(f"goals line {lineno}: duplicate goal {name!r}")
        seen.add(name)
        goals.append((name, parse_predicate(source, machine)))
    return GoalSpec(goals=tuple(goals))


def default_mutation_count(transition_count: int) -> int:
    """One percent of the derived transitions, at least one."""
    return max(1, math.ceil(transition_count / 100))


def evaluate(config: EvaluationConfig) -> QualityReport:
    # The three counts may be 0 (n_extra and n_missing unset take their
    # default); the report's schema bounds the others below by 1.
    counts = ("trials", "n_extra", "n_missing")
    flags = (
        ("trials", config.trials), ("n_extra", config.n_extra),
        ("n_missing", config.n_missing), ("word_limit", config.word_limit),
        ("max_states", config.max_states), ("max_transitions", config.max_transitions),
        ("similarity_threshold", config.size_guard),
    )
    for name, value in flags:
        if value is not None and value < 0:
            raise EvaluationError(f"{name} must not be negative, got {value}")
        if value == 0 and name not in counts:
            raise EvaluationError(f"{name} must be at least 1, got 0")
    source = Path(config.machine_path).read_text(encoding="utf-8")
    machine = parse_machine(source)
    result = explore(
        machine,
        max_states=config.max_states,
        max_transitions=config.max_transitions,
    )
    report = QualityReport(machine_name=machine.name)
    report.capacity = capacity(result)
    report.cpu_seconds = result.cpu_seconds
    report.peak_memory_bytes = result.peak_memory_bytes
    report.summary = result.summary

    n_words = word_count(source)
    seed = config.resolved_seed()
    # A cut LTS makes every metric computed from it a number of the cut.
    cut = _TRUNCATED.format("exploration") if result.truncated else None

    # functional suitability -------------------------------------------------
    requirement = None
    required_source: dict = {"mode": None}
    if config.required_path or config.reference_path:
        requirement = load_required(
            machine,
            required_path=config.required_path,
            reference_path=config.reference_path,
            max_states=config.max_states,
            max_transitions=config.max_transitions,
        )
        if config.required_path:
            required_source = {"mode": "transitions", "path": config.required_path}
        else:
            required_source = {
                "mode": "reference",
                "path": config.reference_path,
                "truncated": requirement.truncated,
            }

    if requirement is None:
        _mark_all(report, _FUNCTIONAL_METRICS, "no required transitions provided")
    elif cut is not None or requirement.truncated:
        reason = cut or _TRUNCATED.format("reference exploration")
        _mark_all(report, _FUNCTIONAL_METRICS, reason)
    else:
        _functional_metrics(report, result, requirement, config.size_guard)

    # security / reliability / maintainability / usability ---------------------
    computations = {
        "invariant_satisfiability": lambda: invariant_satisfiability(result),
        "accountability": lambda: accountability(result),
        "reusability": lambda: reusability(result),
    }
    if config.goals_path is not None:
        goals = parse_goals(
            Path(config.goals_path).read_text(encoding="utf-8"), machine
        )
        computations["goal_appropriateness"] = lambda: goal_appropriateness(
            result, goals
        )
    else:
        report.mark_not_computed("goal_appropriateness", "no goals provided")
    if cut is not None:
        _mark_all(report, computations, cut)
    else:
        for name, compute in computations.items():
            _set_or_mark(report, name, compute)
    _set_or_mark(report, "learnability", lambda: learnability(n_words, config.word_limit))

    # fault injection ------------------------------------------------------------
    if cut is None and config.plan_path is not None:
        plan = load_plan(config.plan_path, result, machine.element_sets)
        changed = apply_plan(result, plan)
        values, reasons = trial_metrics(result, changed)
        sweep = partial(plan_modularity, result, plan, changed)
        _record_fault_metrics(report, values, reasons, sweep)
        mutation_prov = {
            "mode": "plan",
            "plan_path": config.plan_path,
            "n_extra": len(plan.pre),
            "n_missing": len(plan.missing),
            "label_scope": plan.label_scope,
            "seed": plan.seed,
        }
    elif cut is None and config.trials > 0:
        # Defaulted counts are cut to what the exploration offers.
        n_default = default_mutation_count(len(result.pre))
        default_extra, default_missing = capped_counts(result, n_default, n_default)
        n_extra = config.n_extra if config.n_extra is not None else default_extra
        n_missing = config.n_missing if config.n_missing is not None else default_missing
        outcome = run_trials(result, config.trials, n_extra, n_missing, seed)
        values = outcome.means
        reasons = dict.fromkeys(FAULT_METRICS, "not computable in any trial")
        report.trial_exclusions = outcome.exclusions
        per_op_counts = per_operation_counts(result, n_extra, n_missing)
        sweep = partial(modularity_sweep, result, per_op_counts, seed)
        _record_fault_metrics(report, values, reasons, sweep)
        mutation_prov = {
            "mode": "seeded",
            "trials": config.trials,
            "n_extra": n_extra,
            "n_missing": n_missing,
            "seed": seed,
            "per_operation_counts": _counts_json(per_op_counts),
        }
    else:
        _mark_all(report, [*FAULT_METRICS, "modularity"], cut or "mutation trials disabled")
        mutation_prov = {"mode": "disabled"}

    report.provenance = {
        "machine_path": config.machine_path,
        "required_source": required_source,
        "goals_path": config.goals_path,
        "word_count": n_words,
        "word_limit": config.word_limit,
        "limits": {
            "max_states": config.max_states,
            "max_transitions": config.max_transitions,
        },
        "mutation": mutation_prov,
        "similarity_size_guard": config.size_guard,
        "tool_version": __version__,
    }
    return report


def _functional_metrics(
    report: QualityReport,
    result: ExplorationResult,
    requirement: RequirementSpec,
    size_guard: int,
) -> None:
    """The six functional metrics, on one coding of the derived and required
    relations, and availability."""
    required = requirement.required_transitions
    computations = functional(*code_relations(result, required), size_guard=size_guard)
    computations["availability"] = lambda: availability(result, required.operations)
    for name, compute in computations.items():
        _set_or_mark(report, name, compute)


def _mark_all(report: QualityReport, names, reason: str) -> None:
    for name in names:
        report.mark_not_computed(name, reason)


def _set_or_mark(report: QualityReport, name: str, compute) -> None:
    try:
        report.set_metric(name, compute())
    except (NotComputable, AlignmentError, MutationError) as exc:
        report.mark_not_computed(name, str(exc))


def _record_fault_metrics(report: QualityReport, values: dict, reasons: dict, sweep) -> None:
    """Write the fault metrics, a None value marked with its reason, and the
    modularity that ``sweep`` computes."""
    for name, value in values.items():
        if value is None:
            report.mark_not_computed(name, reasons[name])
        else:
            report.set_metric(name, value)

    def modularity() -> Fraction:
        report.per_operation_modularity, weighted = sweep()
        return weighted

    _set_or_mark(report, "modularity", modularity)


def _counts_json(per_op_counts: dict) -> dict:
    return {
        op: {"n_extra": ne, "n_missing": nm}
        for op, (ne, nm) in sorted(per_op_counts.items())
    }


# --- rendering ------------------------------------------------------------------

NOT_COMPUTED = "not-computed"

_TABLE_LABELS = {
    "tfcomp": "TFComp",
    "pfcomp": "PFComp",
    "tfcorr": "TFCorr",
    "pfcorr": "PFCorr",
    "tfappr": "TFAppr",
    "pfappr": "PFAppr",
    "invariant_satisfiability": "Inv. Sat.",
    "availability": "Availability",
    "accountability": "Accountability",
    "fault_tolerance": "Fau. Tol.",
    "recoverability": "Recoverability",
    "functional_analysability": "Fun. Ana.",
    "fault_analysability": "Fau. Ana.",
    "modularity": "Modularity",
    "reusability": "Reusability",
    "cpu_seconds": "CPU Time",
    "peak_memory_bytes": "Peak Mem.",
    "capacity": "Capacity",
    "goal_appropriateness": "GAppr",
    "learnability": "Learnability",
}

_METRIC_ORDER = tuple(name for group in REPORT_GROUPS for name in group)


def _decimal(value: Fraction) -> float:
    return round(float(value), 3)


def report_to_json(report: QualityReport) -> dict:
    metrics: dict = {}
    exact: dict = {}
    for name in _METRIC_ORDER:
        if name == "cpu_seconds":
            metrics[name] = (
                round(report.cpu_seconds, 3) if report.cpu_seconds is not None else None
            )
            continue
        if name == "peak_memory_bytes":
            metrics[name] = report.peak_memory_bytes
            continue
        if name == "capacity":
            metrics[name] = report.capacity
            continue
        value = report.value(name)
        if value is None:
            metrics[name] = NOT_COMPUTED
        else:
            metrics[name] = _decimal(value)
            exact[name] = str(value)
        if name == "invariant_satisfiability":
            # The historically common misspelling stays available as an alias.
            metrics["invariant_satisfability"] = metrics[name]

    obj = {
        "schema_version": SCHEMA_VERSION,
        "machine": report.machine_name,
        "summary": report.summary,
        "metrics": metrics,
        "exact": exact,
        "not_computed_reasons": dict(sorted(report.reasons.items())),
        "per_operation_modularity": {
            op: _decimal(value)
            for op, value in sorted(report.per_operation_modularity.items())
        },
        "per_operation_modularity_exact": {
            op: str(value)
            for op, value in sorted(report.per_operation_modularity.items())
        },
        "characteristics": DERIVED_CHARACTERISTICS,
        "trial_exclusions": dict(sorted(report.trial_exclusions.items())),
        "provenance": report.provenance,
    }
    return obj


def _table_cell(name: str, metrics: dict) -> str:
    value = metrics.get(name)
    if value is None or value == NOT_COMPUTED:
        return NOT_COMPUTED
    if name == "cpu_seconds":
        return f"{value:.3f} (s)"
    if name == "peak_memory_bytes":
        return f"{value / 1e9:.3f} (GB)"
    if name == "capacity":
        return f"{value:,}"
    return f"{value:.3f}"


def render_report(report: QualityReport, report_format: str = "json") -> str:
    """Render as the stable JSON document or as an aligned text table."""
    obj = report_to_json(report)
    if report_format == "json":
        return json.dumps(obj, indent=2) + "\n"
    if report_format != "table":
        raise EvaluationError(f"unknown report format {report_format!r}")

    metrics = obj["metrics"]
    lines = [f"Quality of {report.machine_name}"]
    width_label = max(len(label) for label in _TABLE_LABELS.values())
    width_value = max(
        len(_table_cell(name, metrics)) for name in _METRIC_ORDER
    )
    for group in REPORT_GROUPS:
        cells = [
            f"{_TABLE_LABELS[name]:<{width_label}} {_table_cell(name, metrics):>{width_value}}"
            for name in group
        ]
        lines.append("  " + "   ".join(cells))
    reasons = obj["not_computed_reasons"]
    if reasons:
        lines.append("")
        for name, reason in reasons.items():
            lines.append(f"  not computed: {name} ({reason})")
    return "\n".join(lines) + "\n"
