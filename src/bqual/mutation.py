"""Fault-injection harness.

Faults live at the transition-system level: a plan inserts transitions
that the machine never derived and removes transitions it did derive.
The edited relation is then re-derived from the initial states by a sparse
breadth-first order over the exploration's own ``pre``/``label``/``post``
arrays, under its invariant verdicts (states only a plan reaches are
judged by its compiled invariant, per plan), and the edits themselves are
masked out before the changed system is judged by the exploration's own
violation rule, ``explorer.violations``.  Changed systems are masks over
the exploration's edge ids.

A seeded plan draws from the exploration alone: its states, its
operations and the variable domains ``explore`` inferred
(``ExplorationResult.domains``).  Its only other inputs are the two counts,
the seed and an optional operation scope.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .explorer import ExplorationResult, violations
from .lts import (
    State,
    Transition,
    sorted_transitions,
    transition_from_json,
    transition_to_json,
)
from .metrics import (
    NotComputable,
    fault_analysability,
    fault_tolerance,
    functional_analysability,
    modularity_of,
    recoverability,
    weighted_modularity,
)

_MAX_DRAW_ATTEMPTS = 200_000


class MutationError(ValueError):
    pass


@dataclass(frozen=True)
class MutationPlan:
    extra: frozenset
    missing: frozenset
    seed: int
    label_scope: str | None = None


@dataclass(frozen=True, eq=False)
class ChangedSystem:
    """One applied plan as masks over the derived edges of its exploration:
    ``taken`` holds the derived part of the changed system's transitions,
    ``extra_taken`` the inserted transitions it reaches, ``masked`` the
    masked changed set (``u_changed``, always a subset of the derived
    relation) and ``violating`` its violating part."""

    taken: np.ndarray
    extra_taken: frozenset
    masked: np.ndarray
    violating: np.ndarray


def validate_plan(plan: MutationPlan, t_derived: frozenset) -> None:
    """Reject a plan that does not edit ``t_derived``; each message names
    the first offending transition in canonical order."""
    overlap = plan.extra & t_derived
    if overlap:
        raise MutationError(
            f"extra transition {sorted_transitions(overlap)[0]!r} is already derived"
        )
    stray = plan.missing - t_derived
    if stray:
        raise MutationError(
            f"missing transition {sorted_transitions(stray)[0]!r} is not derived"
        )
    if plan.extra & plan.missing:
        raise MutationError("a transition cannot be both extra and missing")
    if plan.label_scope is not None:
        off_label = {
            t for t in plan.extra | plan.missing if t.label != plan.label_scope
        }
        if off_label:
            raise MutationError(
                f"plan is scoped to {plan.label_scope!r} but touches "
                f"{sorted_transitions(off_label)[0].label!r}"
            )


def _extra_space(
    result: ExplorationResult, labels: list[str], n_extra: int, derived: int
) -> tuple[int, int]:
    """``(space, occupied)`` for extra transitions over ``labels``: the size
    of the pre-state x label x post-valuation space they are drawn from, and
    how many derived transitions lie in it.  ``derived`` bounds that count;
    when ``n_extra`` fits beside the bound, the bound is returned uncounted."""
    order, domains = result.variable_order, result.domains
    product_size = math.prod(len(domains[name].values()) for name in order)
    space = len(result.rows) * len(labels) * product_size
    occupied = min(derived, space)
    if n_extra > space - occupied:
        checks = [domains[name].contains for name in order]
        rows = [all(check(v) for check, v in zip(checks, row)) for row in result.rows]
        in_domain = np.array(rows, dtype=bool)
        codes = [code for code, name in enumerate(result.labels) if name in labels]
        occupied = _count(in_domain[result.post] & np.isin(result.label, codes))
    return space, occupied


def generate_plan(
    result: ExplorationResult,
    n_extra: int,
    n_missing: int,
    seed: int,
    label_scope: str | None = None,
) -> MutationPlan:
    """Draw a random plan, fully determined by ``seed``.

    Removals are sampled uniformly without replacement from the derived
    transitions; insertions combine a reachable pre-state, a label (the
    machine's operations, or only ``label_scope``), and a post-state drawn
    from the product of the variable domains, rejecting anything already
    derived or already drawn.
    """
    for name, count in (("n_extra", n_extra), ("n_missing", n_missing)):
        if count < 0:
            raise MutationError(f"{name} must not be negative, got {count}")
    if label_scope is not None and label_scope not in result.labels:
        raise MutationError(f"plan is scoped to an unknown operation {label_scope!r}")
    rng = random.Random(seed)
    order, domains = result.variable_order, result.domains

    pool = (
        [t for t in result.ordered_transitions if t.label == label_scope]
        if label_scope is not None
        else result.ordered_transitions
    )
    if n_missing > len(pool):
        raise MutationError(
            f"cannot remove {n_missing} of {len(pool)} eligible transitions"
        )
    missing = frozenset(rng.sample(pool, n_missing)) if n_missing else frozenset()

    label_pool = [label_scope] if label_scope is not None else list(result.labels)
    space, occupied = _extra_space(result, label_pool, n_extra, len(result.pre))
    if n_extra > space - occupied:
        raise MutationError(
            f"cannot draw {n_extra} distinct extra transitions from a space "
            f"of {space} with {occupied} already derived"
        )
    states = result.state_objects
    by_rank = result.canonical[1]
    value_pools = [domains[name].values() for name in order]

    extra: set[Transition] = set()
    attempts = 0
    while len(extra) < n_extra:
        attempts += 1
        if attempts > max(_MAX_DRAW_ATTEMPTS, 100 * n_extra):
            raise MutationError(
                "too many rejected draws while generating extra transitions"
            )
        pre = states[rng.choice(by_rank)]
        label = rng.choice(label_pool)
        post = State(order, tuple(rng.choice(values) for values in value_pools))
        candidate = Transition(pre, label, post)
        if candidate in result.transitions or candidate in extra:
            continue
        extra.add(candidate)

    return MutationPlan(
        extra=frozenset(extra),
        missing=missing,
        seed=seed,
        label_scope=label_scope,
    )


def apply_plan(result: ExplorationResult, plan: MutationPlan) -> ChangedSystem:
    """Edit the transition relation, re-derive reachability, and mask.

    The walk has no limits, so no state is cut, and it never leaves a state
    that breaks the invariant.  The masked set is judged by the violation
    rule, with deadlock relative to the masked set itself.
    """
    validate_plan(plan, result.transitions)
    pre, post = result.pre, result.post
    missing = np.zeros(len(pre), dtype=bool)
    missing[result.edges(plan.missing)] = True

    # Inserted transitions may reach states the exploration never did; they
    # get the next ids, judged by the exploration's invariant.
    ids = dict(result.state_id)
    extra = tuple(plan.extra)
    extra_pre = np.array([ids.setdefault(t.pre, len(ids)) for t in extra], np.int64)
    extra_post = np.array([ids.setdefault(t.post, len(ids)) for t in extra], np.int64)
    order = result.variable_order
    fresh = itertools.islice(ids, len(result.rows), None)
    verdicts = [result.holds(dict(zip(order, state.values))) for state in fresh]
    ok = np.concatenate((result.state_ok, np.array(verdicts, dtype=bool)))

    # The walk follows the edges out of states that satisfy the invariant,
    # from a virtual source that feeds the initial states.  Derived edges
    # leave only such states, as exploration never expands the others.
    follow = ~missing
    extra_follow = ok[extra_pre]
    source = len(ok)
    feeds = np.full(result.n_initial, source)
    rows = np.concatenate((pre[follow], extra_pre[extra_follow], feeds))
    initial = np.arange(result.n_initial)
    columns = np.concatenate((post[follow], extra_post[extra_follow], initial))
    reached = _reachable(rows, columns, source)

    taken = follow & reached[pre]
    extra_taken = frozenset(
        itertools.compress(extra, (extra_follow & reached[extra_pre]).tolist())
    )
    masked = taken | missing
    violating = masked.copy()
    violating[masked], _ = violations(pre[masked], post[masked], result.state_ok)
    return ChangedSystem(taken, extra_taken, masked, violating)


def _reachable(rows: np.ndarray, columns: np.ndarray, source: int) -> np.ndarray:
    """Mask of the nodes ``0..source`` that a breadth-first order from
    ``source`` reaches over the edges ``rows[i] -> columns[i]``."""
    # Imported at first use: csgraph adds to every start-up of the CLI.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    nodes = source + 1
    # The derived edges come sorted by pre-state, which a stable sort
    # exploits; csgraph converts any weights but float64 on every call.
    order = np.argsort(rows, kind="stable")
    starts = np.zeros(nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nodes), out=starts[1:])
    graph = csr_matrix(
        (np.ones(len(rows)), columns[order], starts), shape=(nodes, nodes)
    )
    reached = np.zeros(nodes, dtype=bool)
    reached[breadth_first_order(graph, source, return_predecessors=False)] = True
    return reached


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


# The four fault-injection metrics, each a function of the derived system
# and one changed system, whose masked changed set is a subset of the
# derived transitions.
FAULT_METRICS = {
    "fault_tolerance": lambda result, changed: fault_tolerance(
        _count(changed.masked), _count(changed.violating)
    ),
    "recoverability": lambda result, changed: recoverability(
        _count(changed.masked & ~changed.violating), len(result.pre)
    ),
    "functional_analysability": lambda result, changed: functional_analysability(
        _count(changed.masked), len(result.pre)
    ),
    "fault_analysability": lambda result, changed: fault_analysability(
        _count(result.violates & changed.violating),
        _count(result.violates | changed.violating),
    ),
}


@dataclass
class TrialOutcome:
    means: dict
    exclusions: dict


def trial_metrics(
    result: ExplorationResult, changed: ChangedSystem
) -> tuple[dict, dict]:
    """The four fault-injection metrics for one applied plan; returns
    ``(values, reasons)`` where a non-computable metric appears as None."""
    values: dict = {}
    reasons: dict = {}
    for name, compute in FAULT_METRICS.items():
        try:
            values[name] = compute(result, changed)
        except NotComputable as exc:
            values[name] = None
            reasons[name] = exc.reason
    return values, reasons


def run_trials(
    result: ExplorationResult, trial_count: int, n_extra: int, n_missing: int, seed: int
) -> TrialOutcome:
    """Average the fault-injection metrics over seeded trials.

    Trial ``i`` uses seed ``seed ^ i``.  A trial whose denominator is empty
    for some metric is excluded from that metric's mean, and the exclusion
    is counted; a metric excluded in every trial comes back as None.
    """
    if trial_count < 1:
        raise MutationError("trial count must be at least 1")
    samples: dict[str, list] = {name: [] for name in FAULT_METRICS}
    for i in range(trial_count):
        plan = generate_plan(result, n_extra, n_missing, seed ^ i)
        values, _ = trial_metrics(result, apply_plan(result, plan))
        for name, value in values.items():
            if value is not None:
                samples[name].append(value)
    return TrialOutcome(
        means={
            name: sum(kept, Fraction(0)) / len(kept) if kept else None
            for name, kept in samples.items()
        },
        exclusions={name: trial_count - len(kept) for name, kept in samples.items()},
    )


def _op_seed(seed: int, op: str) -> int:
    return (seed ^ zlib.crc32(op.encode("utf-8"))) & 0xFFFFFFFFFFFFFFFF


def per_operation_counts(
    result: ExplorationResult, n_extra: int, n_missing: int
) -> dict[str, tuple[int, int]]:
    """``(n_extra, n_missing)`` of each operation's label-scoped plan.
    Insertions cannot exceed the operation's free label space, nor removals
    its transitions."""
    per_op = {}
    for op, count in result.label_counts.items():
        space, occupied = _extra_space(result, [op], n_extra, count)
        per_op[op] = (min(n_extra, space - occupied), min(n_missing, count))
    return per_op


def modularity_sweep(
    result: ExplorationResult, per_op_counts: Mapping[str, tuple[int, int]], seed: int
) -> tuple[dict, Fraction]:
    """Per-operation modularity from label-scoped plans, plus the
    transition-share-weighted total."""

    def changed_by(op: str) -> ChangedSystem:
        if op not in per_op_counts:
            raise MutationError(f"no mutation counts for operation {op!r}")
        n_extra, n_missing = per_op_counts[op]
        plan = generate_plan(
            result, n_extra, n_missing, _op_seed(seed, op), label_scope=op
        )
        return apply_plan(result, plan)

    return _modularity(result, changed_by)


def plan_modularity(
    result: ExplorationResult, plan: MutationPlan, changed: ChangedSystem
) -> tuple[dict, Fraction]:
    """Per-operation and weighted modularity under one applied plan, which
    must be scoped to an operation."""
    if plan.label_scope is None:
        raise MutationError("explicit plan has no operation scope")
    return _modularity(
        result, lambda op: changed if op == plan.label_scope else None
    )


def _modularity(
    result: ExplorationResult, changed_by: Callable[[str], ChangedSystem | None]
) -> tuple[dict, Fraction]:
    """Modularity of every derived operation, from the changed system that
    ``changed_by`` gives for it.  An operation without one is untouched: its
    changed system is the derived system itself, so its modularity is 1.

    With ``op`` erased, the changed system's derived part lies inside the
    derived system, so the two share exactly that part, and their union is
    the derived system plus the inserted transitions taken."""
    counts = result.label_counts
    per_op: dict[str, Fraction] = {}
    for op, count in counts.items():
        changed = changed_by(op)
        if changed is None:
            per_op[op] = Fraction(1)
            continue
        common = _count(changed.taken & (result.label != result.labels.index(op)))
        inserted = sum(1 for t in changed.extra_taken if t.label != op)
        union = len(result.pre) - count + inserted
        per_op[op] = modularity_of(op, common, union)
    return per_op, weighted_modularity(per_op, counts)


# --- plan files ----------------------------------------------------------------


def plan_to_json(plan: MutationPlan) -> dict:
    obj = {
        "extra": [transition_to_json(t) for t in sorted_transitions(plan.extra)],
        "missing": [transition_to_json(t) for t in sorted_transitions(plan.missing)],
        "seed": plan.seed,
    }
    if plan.label_scope is not None:
        obj["label_scope"] = plan.label_scope
    return obj


def plan_from_json(
    obj: Mapping,
    variable_order: Iterable[str],
    element_sets: Mapping[str, str] | None = None,
) -> MutationPlan:
    if not isinstance(obj, dict):
        raise MutationError(f"plan must be a JSON object, not {type(obj).__name__}")
    order = tuple(variable_order)
    for key in ("extra", "missing"):
        if key not in obj or not isinstance(obj[key], list):
            raise MutationError(f"plan is missing the {key!r} transition list")
    extra, missing = (
        frozenset(transition_from_json(item, order, element_sets) for item in obj[key])
        for key in ("extra", "missing")
    )
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise MutationError("plan seed must be an integer")
    label_scope = obj.get("label_scope")
    if label_scope is not None and not isinstance(label_scope, str):
        raise MutationError("label_scope must be an operation name")
    return MutationPlan(extra, missing, seed, label_scope)


def load_plan(
    path,
    variable_order: Iterable[str],
    element_sets: Mapping[str, str] | None = None,
) -> MutationPlan:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MutationError(f"{path}: invalid JSON ({exc.msg})") from exc
    return plan_from_json(obj, variable_order, element_sets)
