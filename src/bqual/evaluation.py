"""End-to-end evaluation pipeline and report rendering.

``evaluate`` hands plain values from stage to stage: the machine's text
and AST, the goals as ``(name, predicate)`` pairs, the target's
``ExplorationResult``, an explicit plan on its ids, and the required
``Relation`` (for ``--reference``, the reference's ``ExplorationResult``).
Each input is read before the stage that costs.  One loop records the
metrics that read the LTS, from one dict of callables.  One block records
the fault metrics, after a branch per mode has built the changed systems:
an explicit plan's one, or the seeded ones, drawn lazily.  Metrics whose
inputs are missing, whose denominators are empty, or whose LTS a limit
cut short come back as "not-computed" with a reason instead of failing
the whole run.  The report's metrics, in their JSON order and with their
table labels, are listed once, in ``_TABLE_LABELS``: the text table sets
them four to a row.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .alignment import DEFAULT_SIZE_GUARD, AlignmentError
from .bmachine import MachineAST, Predicate
from .explorer import DEFAULT_MAX_STATES, DEFAULT_MAX_TRANSITIONS, explore
from .lexer import word_count
from .lts import Relation, code_relations, read_transitions_jsonl
from .metrics import (
    DERIVED_CHARACTERISTICS,
    NotComputable,
    QualityReport,
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
    run_trials,
    seeded,
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
# What a metric raises when it cannot be computed for these inputs.
_NOT_COMPUTABLE = (NotComputable, AlignmentError, MutationError)


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
) -> Relation:
    """The required transitions as a relation of arrays, built with no
    transition object: read from a transitions file, or the exploration of
    a reference machine whose variables match the target's, whose
    ``truncated`` says whether a limit cut it short."""
    if (required_path is None) == (reference_path is None):
        raise EvaluationError(
            "exactly one of a transitions file or a reference machine is required"
        )
    if required_path is not None:
        with open(required_path, "r", encoding="utf-8-sig") as handle:
            transitions = read_transitions_jsonl(
                handle, machine.variables, machine.element_sets
            )
        if not transitions:
            raise EvaluationError(f"{required_path}: no required transitions")
        return transitions

    reference = parse_machine(Path(reference_path).read_text(encoding="utf-8-sig"))
    if reference.variables != machine.variables:
        raise EvaluationError(
            f"reference machine {reference.name!r} declares variables "
            f"{list(reference.variables)} but {machine.name!r} declares "
            f"{list(machine.variables)}"
        )
    return explore(
        reference,
        max_states=max_states,
        max_transitions=max_transitions,
        meter_memory=False,
    )


_GOAL_LINE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+?)\s*$")


def parse_goals(text: str, machine: MachineAST) -> tuple[tuple[str, Predicate], ...]:
    """The ``(name, predicate)`` pairs of the goals text: one named goal
    per line, ``NAME: <predicate>``; blank lines skipped."""
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
    return tuple(goals)


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
    seed = config.resolved_seed()

    # inputs, each read before the stage that costs -----------------------------
    source = Path(config.machine_path).read_text(encoding="utf-8-sig")
    machine = parse_machine(source)
    goals = None
    if config.goals_path is not None:
        text = Path(config.goals_path).read_text(encoding="utf-8-sig")
        goals = parse_goals(text, machine)
    limits = {"max_states": config.max_states, "max_transitions": config.max_transitions}
    result = explore(machine, **limits)
    # A cut LTS makes every metric computed from it a number of the cut.
    cut = _TRUNCATED.format("exploration") if result.truncated else None
    plan = None
    if cut is None and config.plan_path is not None:
        plan = load_plan(config.plan_path, result, machine.element_sets)
    required = None
    required_source: dict = {"mode": None}
    if config.required_path or config.reference_path:
        required = load_required(
            machine,
            required_path=config.required_path,
            reference_path=config.reference_path,
            **limits,
        )
        if config.required_path:
            required_source = {"mode": "transitions", "path": config.required_path}
        else:
            required_source = {
                "mode": "reference",
                "path": config.reference_path,
                "truncated": required.truncated,
            }

    n_words = word_count(source)
    metrics = {"capacity": capacity(result), **result.metering}
    metrics["learnability"] = learnability(n_words, config.word_limit)
    report = QualityReport(machine.name, metrics=metrics, summary=result.summary)

    # the metrics that read the LTS ----------------------------------------------
    # Each is a callable or the reason it is not computed (a missing input
    # or a cut LTS); a cut target is the reason for every callable too.
    computations: dict = {
        "invariant_satisfiability": lambda: invariant_satisfiability(result),
        "accountability": lambda: accountability(result),
        "reusability": lambda: reusability(result),
        "goal_appropriateness": (lambda: goal_appropriateness(result, goals))
        if goals is not None
        else "no goals provided",
    }
    if required is None:
        reason = "no required transitions provided"
        computations.update(dict.fromkeys(_FUNCTIONAL_METRICS, reason))
    elif cut or required_source.get("truncated"):
        reason = cut or _TRUNCATED.format("reference exploration")
        computations.update(dict.fromkeys(_FUNCTIONAL_METRICS, reason))
    else:
        computations.update(
            functional(*code_relations(result, required), size_guard=config.size_guard)
        )
        computations["availability"] = lambda: availability(result, required.operations)
    for name, compute in computations.items():
        reason = compute if isinstance(compute, str) else cut
        if reason is None:
            try:
                report.metrics[name] = compute()
                continue
            except _NOT_COMPUTABLE as exc:
                reason = str(exc)
        report.mark_not_computed(name, reason)
    # Free the coded relations before fault injection sets the peak memory.
    del computations, compute, required

    # fault injection ------------------------------------------------------------
    # An explicit plan is applied once and scored as a one-trial run.
    if plan is not None:
        trials = sweep = [apply_plan(result, plan)]
        mutation_prov = {
            "mode": "plan",
            "plan_path": config.plan_path,
            "n_extra": len(plan.pre),
            "n_missing": len(plan.missing),
            "label_scope": plan.label_scope,
            "seed": plan.seed,
        }
    elif cut or not config.trials:
        for name in (*FAULT_METRICS, "modularity"):
            report.mark_not_computed(name, cut or "mutation trials disabled")
        mutation_prov = {"mode": "disabled"}
    else:
        # Defaulted counts are cut to what the exploration offers.
        n_default = default_mutation_count(len(result.pre))
        default_extra, default_missing = capped_counts(result, n_default, n_default)
        n_extra = config.n_extra if config.n_extra is not None else default_extra
        n_missing = config.n_missing if config.n_missing is not None else default_missing
        trials = seeded(result, n_extra, n_missing, seed, config.trials)
        sweep = seeded(result, n_extra, n_missing, seed)
        mutation_prov = {
            "mode": "seeded",
            "trials": config.trials,
            "n_extra": n_extra,
            "n_missing": n_missing,
            "seed": seed,
            "per_operation_counts": {
                op: {"n_extra": e, "n_missing": m}
                for op in sorted(result.label_counts)
                for e, m in [capped_counts(result, n_extra, n_missing, op)]
            },
        }
    if mutation_prov["mode"] != "disabled":
        means, exclusions, reasons = run_trials(result, trials)
        report.metrics.update(means)
        if plan is None:
            reasons = dict.fromkeys(reasons, "not computable in any trial")
            report.trial_exclusions = exclusions
        report.reasons.update(reasons)
        try:
            report.per_operation_modularity, weighted = modularity_sweep(result, sweep)
            report.metrics["modularity"] = weighted
        except _NOT_COMPUTABLE as exc:
            report.mark_not_computed("modularity", str(exc))

    report.provenance = {
        "machine_path": config.machine_path,
        "required_source": required_source,
        "goals_path": config.goals_path,
        "word_count": n_words,
        "word_limit": config.word_limit,
        "limits": limits,
        "mutation": mutation_prov,
        "similarity_size_guard": config.size_guard,
        "tool_version": __version__,
    }
    return report


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

_METRIC_ORDER = tuple(_TABLE_LABELS)


def _decimal(value: Fraction) -> float:
    return round(float(value), 3)


def report_to_json(report: QualityReport) -> dict:
    metrics: dict = {}
    exact: dict = {}
    for name in _METRIC_ORDER:
        value = report.value(name)
        if isinstance(value, Fraction):
            metrics[name] = _decimal(value)
            exact[name] = str(value)
        elif value is None:
            metrics[name] = NOT_COMPUTED
        else:
            metrics[name] = round(value, 3) if isinstance(value, float) else value
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
    for start in range(0, len(_METRIC_ORDER), 4):
        cells = [
            f"{_TABLE_LABELS[name]:<{width_label}} {_table_cell(name, metrics):>{width_value}}"
            for name in _METRIC_ORDER[start : start + 4]
        ]
        lines.append("  " + "   ".join(cells))
    reasons = obj["not_computed_reasons"]
    if reasons:
        lines.append("")
        for name, reason in reasons.items():
            lines.append(f"  not computed: {name} ({reason})")
    return "\n".join(lines) + "\n"
