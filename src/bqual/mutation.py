"""Fault-injection harness.

Faults live at the transition-system level: a plan inserts transitions
that the machine never derived and removes transitions it did derive.
The edited relation is then re-derived from the initial states by a sparse
breadth-first order, under the exploration's invariant verdicts (states
only a plan reaches are judged by its compiled invariant, per plan), and
the edits themselves are masked out before the changed system is judged by
the exploration's own violation rule, ``explorer.violations``.  The graph
walked is a small edit of one graph per exploration,
``ExplorationResult.graph``, built at the first plan applied: a removed
edge becomes a self-loop and an inserted one is spliced into its
pre-state's row.  Changed systems are masks over the exploration's edge
ids.

A ``MutationPlan`` is the one plan type: arrays of the exploration's edge,
state and label ids.  ``generate_plan`` draws one from the exploration
alone: its states, its operations and the variable domains ``explore``
inferred (``ExplorationResult.domains``), on the ids and domain indices of
``ExplorationResult.draw_space``; its only other inputs are the two
counts, the seed and an optional operation scope.  A plan file is decoded
straight to ids (``plan_from_json``), its listed transitions ordered by
``Relation.canonical``; no set of transition triples is built on any path,
and a ``Transition`` only to word an error.

Both kinds of plan are scored on one path, ``run_trials`` and
``modularity_sweep`` over changed systems: ``seeded`` yields the seeded
ones one plan at a time, and an explicit plan is applied once.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

from .explorer import ExplorationResult, ExplorerError, violations
from .lts import (
    StructureError, Transition, edge_keys, lookup, relation_of, state_text,
    transition_values,
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


@dataclass(frozen=True, eq=False)
class MutationPlan:
    """A plan on an exploration's ids: the derived edges it removes
    (``missing``) and the transitions it inserts, from state ``pre[i]`` to
    ``post[i]`` by label code ``label[i]``.  A state id past the
    exploration's states names a state only the plan reaches; ``fresh``
    holds their values, in id order.  ``seed`` is the seed it was drawn
    under (provenance only for a plan file) and ``label_scope``, when set,
    the one operation it touches."""

    missing: np.ndarray
    pre: np.ndarray
    label: np.ndarray
    post: np.ndarray
    fresh: tuple = ()
    seed: int = 0
    label_scope: str | None = None


@dataclass(frozen=True, eq=False)
class ChangedSystem:
    """One applied plan, ``plan``, as masks: ``taken`` over the derived
    edges holds the derived part of the changed system's transitions,
    ``extra_taken`` over the plan's inserted transitions those it reaches,
    ``masked`` the masked changed set (``u_changed``, always a subset of
    the derived relation) and ``violating`` its violating part."""

    plan: MutationPlan
    taken: np.ndarray
    extra_taken: np.ndarray
    masked: np.ndarray
    violating: np.ndarray


def _extra_space(result: ExplorationResult, codes: list[int]) -> tuple[int, int]:
    """``(space, occupied)`` for extra transitions over the label codes
    ``codes``: the size of the pre-state x label x post-valuation space they
    are drawn from, and how many derived transitions lie in it."""
    draw_space = result.draw_space
    space = len(result.rows) * len(codes) * draw_space.size
    return space, int(draw_space.occupied[codes].sum())


def generate_plan(
    result: ExplorationResult,
    n_extra: int,
    n_missing: int,
    seed: int,
    label_scope: str | None = None,
) -> MutationPlan:
    """Draw a random plan, fully determined by ``seed``.

    Removals are sampled uniformly without replacement from the derived
    transitions; insertions combine a reached pre-state, a label (the
    machine's operations, or only ``label_scope``), and a post-state drawn
    from the product of the variable domains, rejecting anything already
    derived or already drawn.

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
    codes = _scope_codes(labels, label_scope)
    rng = random.Random(seed)
    by_rank, pool = result.canonical
    if label_scope is not None:
        pool = pool[result.label[pool] == codes[0]]
    if n_missing > len(pool):
        raise MutationError(
            f"cannot remove {n_missing} of {len(pool)} eligible transitions"
        )
    missing = pool[rng.sample(range(len(pool)), n_missing)]

    space, occupied = _extra_space(result, codes)
    if n_extra > space - occupied:
        raise MutationError(
            f"cannot draw {n_extra} distinct extra transitions from a space "
            f"of {space} with {occupied} already derived"
        )
    draw_space = result.draw_space
    radices = [(domain.size, range(domain.size)) for domain in draw_space.domains]
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
    fresh, pre, label, post = _drawn(result, keys)
    return MutationPlan(missing, pre, label, post, fresh, seed, label_scope)


def _drawn(result: ExplorationResult, keys: np.ndarray) -> tuple:
    """``(fresh, pre, label, post)`` of the drawn keys
    ``(pre·L + label)·size + post index``: a post index names the reached
    state there, if any, or else a fresh state with the values it encodes."""
    draw_space, n_labels = result.draw_space, len(result.labels)
    rest, index = keys // draw_space.size, keys % draw_space.size
    pre, label = (column.astype(np.int64) for column in (rest // n_labels, rest % n_labels))
    reached, at = lookup(draw_space.sorted_index, index)
    if reached.all():
        return (), pre, label, draw_space.by_index[at]
    post = np.empty(len(keys), dtype=np.int64)
    post[reached] = draw_space.by_index[at[reached]]
    fresh, slot = np.unique(index[~reached], return_inverse=True)
    post[~reached] = len(result.rows) + slot.reshape(-1)
    return tuple(map(draw_space.valuation, fresh.tolist())), pre, label, post


def _scope_codes(labels: list[str], label_scope: str | None) -> list[int]:
    """The label codes a plan scoped to ``label_scope`` (None: all) may touch."""
    if label_scope is None:
        return list(range(len(labels)))
    if label_scope not in labels:
        raise MutationError(f"plan is scoped to an unknown operation {label_scope!r}")
    return [labels.index(label_scope)]


def apply_plan(result: ExplorationResult, plan: MutationPlan) -> ChangedSystem:
    """Edit the transition relation, re-derive reachability, and mask.

    The edit is made on the exploration's cached successor graph
    (``ExplorationResult.graph``): each removed edge becomes a self-loop
    at its pre-state, which reaches nothing new, and each inserted edge
    the walk follows is spliced in at the end of its pre-state's row.  The
    walk has no limits, so no state is cut, and it never leaves a state
    that breaks the invariant.  The masked set is judged by the violation
    rule, with deadlock relative to the masked set itself; when it is the
    whole derived relation of an exploration no limit cut, that is the
    exploration's own verdict.
    """
    # Imported at first use: csgraph adds to every start-up of the CLI.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    # States only the plan reaches are judged by the exploration's invariant.
    verdicts = []
    for values in plan.fresh:
        try:
            verdicts.append(result.holds(values))
        except ExplorerError as exc:
            raise MutationError(f"plan-only state {state_text(values)}: {exc}") from None
    ok = np.concatenate((result.state_ok, np.array(verdicts, dtype=bool)))

    # The walk follows the edges out of states that satisfy the invariant,
    # from a virtual source, the last node, that feeds the initial states.
    # Derived edges leave only such states, as exploration never expands
    # the others.  The followed extras, by pre-state, and the source's edges
    # each go in at the end of their row: a derived state's inside
    # ``targets``, the rows of the other nodes after it.
    indptr, targets = result.graph
    degree = np.diff(indptr)
    n_states, nodes = len(result.rows), len(ok) + 1
    extra_follow = ok[plan.pre]
    heads, tails = plan.pre[extra_follow], plan.post[extra_follow]
    order = np.argsort(heads, kind="stable")
    heads = np.concatenate((heads[order], np.full(result.n_initial, nodes - 1)))
    tails = np.concatenate((tails[order], np.arange(result.n_initial)))
    at = indptr[np.minimum(heads + 1, n_states)]
    indices = np.insert(targets, at, tails)
    # Each removed edge, moved past the edges spliced in before it, becomes
    # a self-loop at its pre-state, which reaches nothing new.
    missing = plan.missing
    indices[missing + np.searchsorted(at, missing, side="right")] = result.pre[missing]
    counts = np.bincount(heads, minlength=nodes)
    counts[:n_states] += degree
    rows = np.zeros(nodes + 1, dtype=np.int32)
    np.cumsum(counts, out=rows[1:])
    # csgraph converts any weights but float64, and never reads them.
    weights = np.broadcast_to(np.float64(1), indices.shape)
    graph = csr_matrix((weights, indices, rows), shape=(nodes, nodes))
    reached = np.zeros(nodes, dtype=bool)
    reached[breadth_first_order(graph, nodes - 1, return_predecessors=False)] = True

    # The derived edges out of reached states, with the removed ones
    # cleared (taken) or set (masked).
    taken = np.repeat(reached[:n_states], degree)
    masked = taken.copy()
    taken[missing] = False
    masked[missing] = True
    extra_taken = extra_follow & reached[plan.pre]
    if masked.all() and not result.truncated:
        violating = result.violates.copy()
    else:
        violating = masked.copy()
        violating[masked], _ = violations(
            result.pre[masked], result.post[masked], result.state_ok
        )
    return ChangedSystem(plan, taken, extra_taken, masked, violating)


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


def run_trials(
    result: ExplorationResult, changed: Iterable[ChangedSystem]
) -> tuple[dict, dict, dict]:
    """``(means, exclusions, reasons)`` of the fault-injection metrics over
    the changed systems, one trial each.  A trial whose denominator is empty
    for some metric is excluded from that metric's mean and counted; a
    metric excluded in every trial has mean None and the last reason."""
    samples: dict[str, list] = {name: [] for name in FAULT_METRICS}
    reasons: dict = {}
    trials = 0
    for trials, system in enumerate(changed, start=1):
        for name, compute in FAULT_METRICS.items():
            try:
                samples[name].append(compute(result, system))
            except NotComputable as exc:
                reasons[name] = exc.reason
    if not trials:
        raise MutationError("trial count must be at least 1")
    means = {name: sum(kept) / len(kept) if kept else None for name, kept in samples.items()}
    exclusions = {name: trials - len(kept) for name, kept in samples.items()}
    return means, exclusions, {name: reasons[name] for name in means if means[name] is None}


def _op_seed(seed: int, op: str) -> int:
    return (seed ^ zlib.crc32(op.encode("utf-8"))) & 0xFFFFFFFFFFFFFFFF


def capped_counts(
    result: ExplorationResult, n_extra: int, n_missing: int, label_scope: str | None = None
) -> tuple[int, int]:
    """``(n_extra, n_missing)`` cut to what a plan scoped to ``label_scope``
    (None: all operations) can hold: insertions to the free draw space,
    removals to the derived transitions in scope."""
    codes = _scope_codes(result.labels, label_scope)
    space, occupied = _extra_space(result, codes)
    eligible = sum(result.label_counts.get(result.labels[c], 0) for c in codes)
    return min(n_extra, space - occupied), min(n_missing, eligible)


def seeded(
    result: ExplorationResult, n_extra: int, n_missing: int, seed: int, trials: int | None = None
) -> Iterator[ChangedSystem]:
    """Seeded changed systems, each drawn and applied when the one before it
    has been used: trial ``i`` of ``trials`` under seed ``seed ^ i`` or,
    without ``trials``, the sweep's plan for each derived operation ``op``,
    scoped to it with ``capped_counts``, under ``_op_seed(seed, op)``."""
    if trials is None:
        for op in result.label_counts:
            counts = capped_counts(result, n_extra, n_missing, op)
            yield apply_plan(result, generate_plan(result, *counts, _op_seed(seed, op), op))
    else:
        for i in range(trials):
            yield apply_plan(result, generate_plan(result, n_extra, n_missing, seed ^ i))


def modularity_sweep(
    result: ExplorationResult, changed: Iterable[ChangedSystem]
) -> tuple[dict, Fraction]:
    """Per-operation modularity from changed systems whose plans are each
    scoped to an operation, plus the transition-share-weighted total.  A
    derived operation without one is untouched: its changed system is the
    derived system itself, so its modularity is 1.

    With ``op`` erased, the changed system's derived part lies inside the
    derived system, so the two share exactly that part, and their union is
    the derived system plus the inserted transitions taken."""
    counts = result.label_counts
    per_op = dict.fromkeys(counts, Fraction(1))
    for system in changed:
        op = system.plan.label_scope
        if op is None:
            raise MutationError("explicit plan has no operation scope")
        if op not in counts:
            continue
        code = result.labels.index(op)
        common = _count(system.taken & (result.label != code))
        inserted = _count(system.extra_taken & (system.plan.label != code))
        union = len(result.pre) - counts[op] + inserted
        per_op[op] = modularity_of(op, common, union)
    return per_op, weighted_modularity(per_op, counts)


# --- plan files ----------------------------------------------------------------


def plan_from_json(
    obj: Mapping,
    result: ExplorationResult,
    element_sets: Mapping[str, str] | None = None,
) -> MutationPlan:
    """The plan that the decoded JSON object ``obj`` gives, on ``result``'s
    ids.  The ``extra`` and ``missing`` lists are sets: a transition listed
    twice counts once, and a state's keys may come in any order.  Raises
    StructureError for a malformed transition, naming its list and item, and
    MutationError unless the plan is well formed and edits ``result``: it
    may name only declared operations, insert only transitions not derived,
    remove only derived ones and, when scoped, touch only its operation.
    Each message names the first offending transition in canonical order,
    and the plan holds its transitions in that order."""
    if not isinstance(obj, dict):
        raise MutationError(f"plan must be a JSON object, not {type(obj).__name__}")
    for key in ("extra", "missing"):
        if key not in obj or not isinstance(obj[key], list):
            raise MutationError(f"plan is missing the {key!r} transition list")
    # Each list as its distinct (pre values, operation, post values), in listed order.
    order, extra, missing = result.variable_order, {}, {}
    for key, transitions in (("extra", extra), ("missing", missing)):
        for n, item in enumerate(obj[key], start=1):
            try:
                transitions[transition_values(item, order, element_sets)] = None
            except StructureError as exc:
                raise StructureError(f"{key} item {n}: {exc}") from None
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise MutationError("plan seed must be an integer")
    label_scope = obj.get("label_scope")
    if label_scope is not None and not isinstance(label_scope, str):
        raise MutationError("label_scope must be an operation name")

    labels = result.labels
    _scope_codes(labels, label_scope)
    touched = list(dict.fromkeys([*extra, *missing]))
    touched = [touched[i] for i in relation_of(touched, order).canonical[1].tolist()]
    for t in touched:
        if t[1] not in labels:
            raise MutationError(
                f"transition {Transition(*t)!r} names an undeclared operation {t[1]!r}"
            )

    # A state not reached takes the next id where it first appears (in the extras).
    ids = {row: i for i, row in enumerate(result.rows)}

    def columns(transitions: list) -> np.ndarray:
        triples = [
            (ids.setdefault(pre, len(ids)), labels.index(op), ids.setdefault(post, len(ids)))
            for pre, op, post in transitions
        ]
        return np.array(triples, np.int64).reshape(-1, 3).T

    inserted = [t for t in touched if t in extra]
    removed = [t for t in touched if t in missing]
    extras = columns(inserted)
    fresh = tuple(ids)[len(result.rows) :]
    # Listed transitions and derived edges keyed alike, over every id.
    listed = np.hstack((extras, columns(removed)))
    n_states, n_labels = len(ids), len(labels)
    keys = edge_keys(result.pre, result.label, result.post, n_states, n_labels)
    order = np.argsort(keys)
    hit, at = lookup(keys[order], edge_keys(*listed, n_states, n_labels))
    found = np.full(len(hit), -1, dtype=np.int64)
    found[hit] = order[at[hit]]
    derived, stray = found[: len(inserted)] >= 0, found[len(inserted) :] < 0
    if derived.any():
        text = repr(Transition(*inserted[derived.argmax()]))
        raise MutationError(f"extra transition {text} is already derived")
    if stray.any():
        text = repr(Transition(*removed[stray.argmax()]))
        raise MutationError(f"missing transition {text} is not derived")
    off_scope = [op for _, op, _ in touched if label_scope not in (None, op)]
    if off_scope:
        raise MutationError(f"plan is scoped to {label_scope!r} but touches {off_scope[0]!r}")
    return MutationPlan(found[len(inserted) :], *extras, fresh, seed, label_scope)


def load_plan(
    path,
    result: ExplorationResult,
    element_sets: Mapping[str, str] | None = None,
) -> MutationPlan:
    """The plan in the JSON file at ``path`` (``plan_from_json``)."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MutationError(f"{path}: invalid JSON ({exc.msg})") from exc
    return plan_from_json(obj, result, element_sets)
