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

A plan is applied as ``Edits``: arrays of the exploration's edge, state
and label ids.  A seeded plan draws from the exploration alone: its
states, its operations and the variable domains ``explore`` inferred
(``ExplorationResult.domains``), on the ids and domain indices of
``ExplorationResult.draw_space``; its only other inputs are the two
counts, the seed and an optional operation scope.  ``Transition`` objects
appear only at the edges: a ``MutationPlan`` read from a plan file (or
built by hand) is validated and converted once, and ``generate_plan``
converts a drawn plan's own transitions for its callers.  The seeded
trials and the modularity sweep stay on ids throughout.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .explorer import ExplorationResult, ExplorerError, violations
from .lts import (
    State,
    Transition,
    lookup,
    sorted_transitions,
    state_values,
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
class Edits:
    """A plan on an exploration's ids: the derived edges it removes
    (``missing``) and the transitions it inserts, from state ``pre[i]`` to
    ``post[i]`` by label code ``label[i]``.  A state id past the
    exploration's states names a state only the plan reaches; ``fresh``
    holds their values, in id order."""

    missing: np.ndarray
    pre: np.ndarray
    label: np.ndarray
    post: np.ndarray
    fresh: tuple = ()


@dataclass(frozen=True, eq=False)
class ChangedSystem:
    """One applied plan, ``edits``, as masks: ``taken`` over the derived
    edges holds the derived part of the changed system's transitions,
    ``extra_taken`` over the plan's inserted transitions those it reaches,
    ``masked`` the masked changed set (``u_changed``, always a subset of
    the derived relation) and ``violating`` its violating part."""

    edits: Edits
    taken: np.ndarray
    extra_taken: np.ndarray
    masked: np.ndarray
    violating: np.ndarray


def validate_plan(plan: MutationPlan, result: ExplorationResult) -> Edits:
    """``plan`` on ``result``'s ids; raises MutationError unless it edits
    ``result``: it may name only declared operations, insert only
    transitions not derived, remove only derived ones and, when scoped,
    touch only its operation.  Each message names the first offending
    transition in canonical order."""
    labels = result.labels
    if plan.label_scope is not None and plan.label_scope not in labels:
        raise MutationError(f"plan is scoped to an unknown operation {plan.label_scope!r}")
    # The canonical order of a set keeps each subset in canonical order.
    touched = sorted_transitions(plan.extra | plan.missing)
    for t in touched:
        if t.label not in labels:
            raise MutationError(
                f"transition {t!r} names an undeclared operation {t.label!r}"
            )
    extra = [t for t in touched if t in plan.extra]
    missing = [t for t in touched if t in plan.missing]

    ids = {row: i for i, row in enumerate(result.rows)}
    fresh: dict[tuple, int] = {}  # the values of each state only the plan reaches
    order = result.variable_order

    def state(s: State) -> int:
        values = state_values(s, order)
        if values in ids:
            return ids[values]
        return len(ids) + fresh.setdefault(values, len(fresh))

    pre = np.array([state(t.pre) for t in extra], np.int64)
    post = np.array([state(t.post) for t in extra], np.int64)
    label = np.array([labels.index(t.label) for t in extra], np.int64)
    derived = np.flatnonzero(result.edge_ids(pre, label, post) >= 0)
    if len(derived):
        raise MutationError(f"extra transition {extra[derived[0]]!r} is already derived")
    try:
        removed = result.edges(missing)
    except ExplorerError as exc:
        raise MutationError(f"missing {exc}") from None
    if plan.label_scope is not None:
        for t in touched:
            if t.label != plan.label_scope:
                raise MutationError(
                    f"plan is scoped to {plan.label_scope!r} but touches {t.label!r}"
                )
    return Edits(removed, pre, label, post, tuple(fresh))


def _extra_space(
    result: ExplorationResult, labels: list[str], n_extra: int, derived: int
) -> tuple[int, int]:
    """``(space, occupied)`` for extra transitions over ``labels``: the size
    of the pre-state x label x post-valuation space they are drawn from, and
    how many derived transitions lie in it.  ``derived`` bounds that count;
    when ``n_extra`` fits beside the bound, the bound is returned uncounted."""
    draw_space = result.draw_space
    space = len(result.rows) * len(labels) * draw_space.size
    occupied = min(derived, space)
    if n_extra > space - occupied:
        inside = draw_space.index >= 0
        codes = [code for code, name in enumerate(result.labels) if name in labels]
        occupied = _count(inside[result.post] & np.isin(result.label, codes))
    return space, occupied


def _draw(
    result: ExplorationResult,
    n_extra: int,
    n_missing: int,
    seed: int,
    label_scope: str | None = None,
) -> Edits:
    """The seeded plan of ``generate_plan``, on ids.

    The random calls are those of the plan's definition (docs/formats.md,
    "Seeded draws"): one ``sample`` of the positions of the canonically
    ordered pool, then per extra candidate one ``choice`` of the pre-state
    among the states in canonical order, one of the label and one of each
    variable's value index, in declaration order.  Candidates are drawn in
    batches of as many as are still wanted, so that no batch draws past
    the draw that completes the plan or trips the cap."""
    for name, count in (("n_extra", n_extra), ("n_missing", n_missing)):
        if count < 0:
            raise MutationError(f"{name} must not be negative, got {count}")
    labels = result.labels
    if label_scope is not None and label_scope not in labels:
        raise MutationError(f"plan is scoped to an unknown operation {label_scope!r}")
    rng = random.Random(seed)
    _, by_rank, pool, _ = result.canonical

    codes = range(len(labels)) if label_scope is None else [labels.index(label_scope)]
    if label_scope is not None:
        pool = pool[result.label[pool] == codes[0]]
    if n_missing > len(pool):
        raise MutationError(
            f"cannot remove {n_missing} of {len(pool)} eligible transitions"
        )
    missing = pool[rng.sample(range(len(pool)), n_missing)]

    scope = [labels[code] for code in codes]
    space, occupied = _extra_space(result, scope, n_extra, len(result.pre))
    if n_extra > space - occupied:
        raise MutationError(
            f"cannot draw {n_extra} distinct extra transitions from a space "
            f"of {space} with {occupied} already derived"
        )
    if not n_extra:
        empty = np.zeros(0, dtype=np.int64)
        return Edits(missing, empty, empty, empty)
    draw_space = result.draw_space
    radices = [(radix, range(radix)) for radix in draw_space.radices]
    n_labels, choice = len(labels), rng.choice
    extra: dict = {}  # the accepted keys, in draw order
    attempts = 0
    cap = max(_MAX_DRAW_ATTEMPTS, 100 * n_extra)
    while len(extra) < n_extra:
        batch = min(n_extra - len(extra), cap - attempts)
        if batch <= 0:
            raise MutationError(
                "too many rejected draws while generating extra transitions"
            )
        attempts += batch
        keys = []
        for _ in range(batch):
            key = choice(by_rank) * n_labels + choice(codes)
            for radix, indices in radices:
                key = key * radix + choice(indices)
            keys.append(key)
        derived, _ = lookup(draw_space.derived, np.array(keys, draw_space.derived.dtype))
        for key, old in zip(keys, derived.tolist()):
            if not old:
                extra.setdefault(key)
    keys = np.array(list(extra), draw_space.derived.dtype)
    return _edits_of(result, missing, keys)


def _edits_of(result: ExplorationResult, missing: np.ndarray, keys: np.ndarray) -> Edits:
    """The ``Edits`` of drawn keys ``(pre·L + label)·size + post index``:
    a post index names the reached state there, if any, or else a fresh
    state with the values it encodes."""
    draw_space, n_labels = result.draw_space, len(result.labels)
    rest, index = keys // draw_space.size, keys % draw_space.size
    pre, label = (column.astype(np.int64) for column in (rest // n_labels, rest % n_labels))
    by_index = draw_space.by_index
    reached, at = lookup(draw_space.index[by_index], index)
    post = np.empty(len(keys), dtype=np.int64)
    post[reached] = by_index[at[reached]]
    fresh, slot = np.unique(index[~reached], return_inverse=True)
    post[~reached] = len(result.rows) + slot.reshape(-1)
    order, domains = result.variable_order, result.domains
    pools = [domains[name].values() for name in order] if len(fresh) else []
    return Edits(missing, pre, label, post, tuple(_valuation(int(i), pools) for i in fresh))


def _valuation(index: int, pools: list[tuple]) -> tuple:
    """The valuation whose domain index is ``index``, one value from each
    of the domains' value lists ``pools``."""
    values = []
    for pool in reversed(pools):
        index, at = divmod(index, len(pool))
        values.append(pool[at])
    return tuple(reversed(values))


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
    derived or already drawn.  The plan's own transitions are built as
    objects; the seeded trials draw the same plans on ids.
    """
    edits = _draw(result, n_extra, n_missing, seed, label_scope)
    rows, order, labels = result.rows, result.variable_order, result.labels
    states: dict[int, State] = {}

    def state(i: int) -> State:
        if i not in states:
            values = rows[i] if i < len(rows) else edits.fresh[i - len(rows)]
            states[i] = State(order, values)
        return states[i]

    def transitions(pre, label, post) -> frozenset:
        columns = zip(*(column.tolist() for column in (pre, label, post)))
        return frozenset(Transition(state(p), labels[c], state(q)) for p, c, q in columns)

    m = edits.missing
    return MutationPlan(
        extra=transitions(edits.pre, edits.label, edits.post),
        missing=transitions(result.pre[m], result.label[m], result.post[m]),
        seed=seed,
        label_scope=label_scope,
    )


def apply_plan(result: ExplorationResult, plan: MutationPlan) -> ChangedSystem:
    """Validate ``plan`` against ``result`` (``validate_plan``) and apply it."""
    return _apply(result, validate_plan(plan, result))


def _apply(result: ExplorationResult, edits: Edits) -> ChangedSystem:
    """Edit the transition relation, re-derive reachability, and mask.

    The walk has no limits, so no state is cut, and it never leaves a state
    that breaks the invariant.  The masked set is judged by the violation
    rule, with deadlock relative to the masked set itself.
    """
    pre, post = result.pre, result.post
    missing = np.zeros(len(pre), dtype=bool)
    missing[edits.missing] = True

    # States only the plan reaches are judged by the exploration's invariant.
    order = result.variable_order
    verdicts = [result.holds(dict(zip(order, values))) for values in edits.fresh]
    ok = np.concatenate((result.state_ok, np.array(verdicts, dtype=bool)))

    # The walk follows the edges out of states that satisfy the invariant,
    # from a virtual source that feeds the initial states.  Derived edges
    # leave only such states, as exploration never expands the others.
    follow = ~missing
    extra_follow = ok[edits.pre]
    source = len(ok)
    feeds = np.full(result.n_initial, source)
    rows = np.concatenate((pre[follow], edits.pre[extra_follow], feeds))
    initial = np.arange(result.n_initial)
    columns = np.concatenate((post[follow], edits.post[extra_follow], initial))
    reached = _reachable(rows, columns, source)

    taken = follow & reached[pre]
    extra_taken = extra_follow & reached[edits.pre]
    masked = taken | missing
    violating = masked.copy()
    violating[masked], _ = violations(pre[masked], post[masked], result.state_ok)
    return ChangedSystem(edits, taken, extra_taken, masked, violating)


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
        changed = _apply(result, _draw(result, n_extra, n_missing, seed ^ i))
        values, _ = trial_metrics(result, changed)
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
        return _apply(result, _draw(result, n_extra, n_missing, _op_seed(seed, op), op))

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
        code = result.labels.index(op)
        common = _count(changed.taken & (result.label != code))
        inserted = _count(changed.extra_taken & (changed.edits.label != code))
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
