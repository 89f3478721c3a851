"""Bounded explicit-state exploration.

Variable domains are read off the invariant's membership conjuncts.  The
invariant, the initialisation and each operation become one generated
Python function over a value row, the tuple of a state's values in
declaration order (``codegen``, imported at first use; every call compiles
its own); the closure interpreter of the tests (``tests/oracle.py``) is
their reference.  The state space is derived breadth-first on dense integer
state ids: the walk keeps each state's row and invariant verdict by id and
the transitions as ``pre``/``label``/``post`` arrays, gathered as one run of
edges per operation run at a state.  One violation rule, ``violations``,
judges those arrays (and every system ``mutation.apply_plan`` re-derives):
a transition violates when its post-state breaks the invariant or has no
outgoing transition (deadlock-freeness is checked always, as an inherent
invariant).  A state whose successors a limit dropped is not a deadlock:
the cut, not the machine, left it without outgoing transitions.  The
exploration is itself an ``lts.Relation`` over the walk's arrays, so the
functional metrics, the transition writers and fault injection read it
directly.  The walk's ids are the only state and edge ids; the canonical
order is one permutation of them.  A state is its row and a transition
the triple ``(pre row, operation, post row)``; the sets of them are built
only when a caller reads them.

The walk memoises each operation's successor ids on its key: the values of
the variables the operation reads (guards, ``WHERE`` clauses, right-hand
sides) and of those it may leave as they are (all but
``bmachine.assigned_on_every_path``).  A state that agrees with an earlier
one on the key takes the same ids, in the same order, without running the
operation, so the ids, the order and every limit's cut are those of
running each operation at each state; where a limit could cut only some
of them, the operation runs.  An operation whose key is the whole state is
never looked up; CM6's ``set_time`` has the empty key and runs once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import resource
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .bmachine import (
    AnyChoice,
    BoundRef,
    IntLit,
    MachineAST,
    Predicate,
    RangeMembership,
    SetMembership,
    VarRef,
    assigned_on_every_path,
    bound_references,
    conjuncts,
    free_variables,
)
from .lts import (
    FALSE,
    KIND_INT,
    TRUE,
    Relation,
    Value,
    canonical_edges,
    edge_keys,
    enumval,
    intval,
    sorted_labels,
    state_texts,
    value_codes,
)
from .bmachine import BOOL_SET

DEFAULT_MAX_STATES = 100_000
DEFAULT_MAX_TRANSITIONS = 5_000_000


class ExplorerError(ValueError):
    pass


class DomainError(ExplorerError):
    """A variable or bound identifier has no enumerable finite domain."""


class EvalTypeError(ExplorerError):
    """An operator was applied to values of the wrong kind."""


class UnboundVariableError(ExplorerError):
    """A variable was read before any assignment gave it a value."""


class InitialisationError(ExplorerError):
    """The initialisation produced no states or partial states."""


# --- domains ----------------------------------------------------------------


@dataclass(frozen=True)
class IntRangeDomain:
    """``low..high``, integers ascending, sized and indexed arithmetically.
    Like ``ListedDomain``, it is read only by ``size``, ``value(i)`` (the
    value at position ``i``) and ``position(v)`` (its inverse, or -1)."""

    low: int
    high: int

    @property
    def size(self) -> int:
        return self.high - self.low + 1

    def value(self, position: int) -> Value:
        return intval(self.low + position)

    def position(self, value: Value) -> int:
        inside = value.kind == KIND_INT and self.low <= value.payload <= self.high
        return value.payload - self.low if inside else -1


@dataclass(frozen=True)
class ListedDomain:
    """A domain of a few values, in order: ``(FALSE, TRUE)`` for ``BOOL``,
    an enumerated set's elements as declared."""

    values: tuple[Value, ...]

    @property
    def size(self) -> int:
        return len(self.values)

    def value(self, position: int) -> Value:
        return self.values[position]

    def position(self, value: Value) -> int:
        return self.values.index(value) if value in self.values else -1


def _domain_from_membership(pred, name: str, ref_type, machine: MachineAST):
    """Match ``name : low..high`` or ``name : SET`` with a literal subject."""
    if isinstance(pred, RangeMembership) and pred.expr == ref_type(name):
        if not isinstance(pred.low, IntLit) or not isinstance(pred.high, IntLit):
            raise DomainError(
                f"domain bounds for {name!r} must be integer literals"
            )
        if pred.low.value > pred.high.value:
            raise DomainError(
                f"empty domain {pred.low.value}..{pred.high.value} for {name!r}"
            )
        return IntRangeDomain(pred.low.value, pred.high.value)
    if isinstance(pred, SetMembership) and pred.expr == ref_type(name):
        if pred.set_name == BOOL_SET:
            return ListedDomain((FALSE, TRUE))
        for set_name, elements in machine.sets:
            if set_name == pred.set_name:
                if not elements:
                    raise DomainError(f"enumerated set {set_name!r} is empty")
                return ListedDomain(tuple(enumval(set_name, e) for e in elements))
        raise DomainError(f"unknown set {pred.set_name!r}")
    return None


def _first_domains(names, pred, ref_type, machine: MachineAST, missing: str) -> list:
    """One domain per name, from the first top-level membership conjunct of
    ``pred`` whose subject is that name; ``missing`` words the error."""
    parts = conjuncts(pred)
    out = []
    for name in names:
        for part in parts:
            domain = _domain_from_membership(part, name, ref_type, machine)
            if domain is not None:
                out.append(domain)
                break
        else:
            raise DomainError(missing.format(repr(name)))
    return out


def infer_domains(machine: MachineAST) -> dict:
    """One finite domain per variable, from the invariant."""
    missing = "variable {} has no membership conjunct in the invariant"
    order = machine.variables
    domains = _first_domains(order, machine.invariant, VarRef, machine, missing)
    return dict(zip(order, domains))


def bound_domains(any_node: AnyChoice, machine: MachineAST) -> list:
    """One finite domain per bound identifier of an ``ANY``, from its
    ``WHERE``."""
    missing = "bound identifier {} has no membership conjunct in WHERE"
    return _first_domains(any_node.identifiers, any_node.where, BoundRef, machine, missing)


# --- exploration --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DrawSpace:
    """The product of the variable domains, as fault injection draws
    post-states from it.

    ``domains`` holds the variables' domains in declaration order, read only
    by ``size``, ``value`` and ``position``, so that an integer range is
    never listed.  A valuation inside the domains has an index, which
    ``valuation`` decodes: the mixed-radix number of its values' positions,
    the first variable most significant, out of ``size``, the product of the
    domains' sizes.  ``sorted_index`` holds the sorted indices of the states
    inside, and ``by_index`` those states in that order.  ``derived`` holds
    the sorted keys ``(pre·L + label)·size + index`` of the derived edges
    whose post-state is inside, for L labels, and ``occupied[c]`` how many
    of them label code ``c`` has.  Positions, indices and keys are int64, or
    Python ints in object arrays when S·L·size passes int64."""

    domains: tuple
    size: int
    sorted_index: np.ndarray
    by_index: np.ndarray
    derived: np.ndarray
    occupied: np.ndarray

    def valuation(self, index: int) -> tuple[Value, ...]:
        """The valuation whose index is ``index``."""
        picked = []
        for domain in reversed(self.domains):
            index, at = divmod(index, domain.size)
            picked.append(domain.value(at))
        return tuple(reversed(picked))


def violations(pre, post, ok, cut: Iterable[int] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The violating edges among ``pre[i] -> post[i]``, for the invariant
    verdicts ``ok``, and the live states: those with an outgoing edge or in
    ``cut`` (a limit dropped their successors).  An edge violates when its
    post-state breaks the invariant or is not live.  Both are masks."""
    live = np.zeros(len(ok), dtype=bool)
    live[pre] = True
    live[list(cut)] = True
    return ~(ok[post] & live[post]), live


@dataclass(frozen=True, eq=False)
class ExplorationResult(Relation):
    """One explored machine: the derived transitions as a ``Relation`` over
    the walk's own arrays, with each state's verdict and each edge's.

    State ids are dense, in breadth-first order from the initial states
    (the first ``n_initial``): ``rows[i]`` holds state ``i``'s values and
    ``state_ok[i]`` its verdict.  Edge ``j`` violates when ``violates[j]``;
    states not ``live`` are deadlocks.  These are the only state and edge
    ids; the canonical order (``Relation.canonical``) is one permutation of
    them, used only where the order shows: the written transitions and the
    seeded draws.  The sets of rows and of ``Transition`` triples are built
    on first read.  ``domains`` holds the variable domains inferred from the
    invariant, from which fault injection draws post-states on the ids and
    domain indices of ``draw_space``, and applies each plan as an edit of
    ``graph``, the derived relation's successor graph; both are built at
    their first read, never by ``explore``."""

    machine_name: str
    state_ok: np.ndarray
    n_initial: int
    violates: np.ndarray
    live: np.ndarray
    truncated: bool
    cpu_seconds: float
    peak_memory_bytes: int
    domains: dict = field(repr=False)
    holds: Callable[[tuple], bool] = field(repr=False)  # the invariant, of a row

    @property
    def summary(self) -> dict:
        """The exploration counts shared by ``bqual explore`` and the report."""
        edges, violating = len(self.pre), int(np.count_nonzero(self.violates))
        return {
            "initial_states": self.n_initial,
            "states": len(self.rows),
            "transitions": edges,
            "ok_transitions": edges - violating,
            "violating_transitions": violating,
            "deadlock_states": len(self.rows) - int(np.count_nonzero(self.live)),
            "truncated": self.truncated,
        }

    @property
    def metering(self) -> dict:
        return {
            "cpu_seconds": self.cpu_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
        }

    @functools.cached_property
    def states(self) -> frozenset:
        return frozenset(self.rows)

    @functools.cached_property
    def deadlock_states(self) -> frozenset:
        return frozenset(itertools.compress(self.rows, (~self.live).tolist()))

    @functools.cached_property
    def violating(self) -> frozenset:
        return frozenset(itertools.compress(self.edge_objects, self.violates.tolist()))

    @functools.cached_property
    def draw_space(self) -> DrawSpace:
        """The domains' product with this exploration's states and derived
        edges placed in it, built on first read (by fault injection)."""
        order, n_labels = self.variable_order, len(self.labels)
        domains = tuple(self.domains[name] for name in order)
        size = math.prod(domain.size for domain in domains)
        dtype = np.int64 if len(self.rows) * n_labels * size < 2**63 else object
        # Each distinct value is placed once in each variable's domain (-1:
        # outside it), and a state's digits gathered by its values' codes.
        values, coded = value_codes(self.rows, len(order))
        place = [[domain.position(value) for value in values] for domain in domains]
        place = np.array(place, dtype=dtype).reshape(len(order), len(values))
        digits = place[np.arange(len(order)), coded]
        index = np.zeros(len(self.rows), dtype=dtype)
        for column, domain in zip(digits.T, domains):
            index = index * domain.size + column
        index[(digits < 0).any(axis=1)] = -1
        placed = np.flatnonzero(index >= 0)
        by_index = placed[np.argsort(index[placed])]
        pre, label, post = self.pre, self.label, index[self.post]
        inside = post >= 0
        if not inside.all():
            pre, label, post = pre[inside], label[inside], post[inside]
        derived = edge_keys(pre, label, post, size, n_labels, dtype)
        derived.sort()
        occupied = np.bincount(label, minlength=n_labels)
        return DrawSpace(domains, size, index[by_index], by_index, derived, occupied)

    @functools.cached_property
    def graph(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``: the derived relation as the compressed
        sparse rows of its successor graph, built on first read (by fault
        injection).  State ``i``'s successors are
        ``indices[indptr[i]:indptr[i + 1]]``; as ``pre`` is nondecreasing,
        ``indices`` is ``post`` itself, in int32 as ``scipy.sparse.csgraph``
        walks it."""
        indptr = np.zeros(len(self.rows) + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.pre, minlength=len(self.rows)), out=indptr[1:])
        return indptr, self.post.astype(np.int32)


def _key_positions(body, order: tuple[str, ...]) -> tuple[int, ...] | None:
    """The positions in ``order`` of the variables an operation's successors
    can depend on: those it reads (guards, ``WHERE`` clauses, right-hand
    sides) and those it may leave as they are.  None when that is every
    variable, so that nothing can be reused."""
    reads, written = free_variables(body), assigned_on_every_path(body)
    positions = tuple(
        i for i, name in enumerate(order) if name in reads or name not in written
    )
    return None if len(positions) == len(order) else positions


def explore(
    machine: MachineAST,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_transitions: int = DEFAULT_MAX_TRANSITIONS,
    meter_memory: bool = True,
) -> ExplorationResult:
    """Breadth-first derivation of the machine's transition system.

    States that violate the invariant are recorded but never expanded.  A
    successor that would pass a limit is dropped and cuts its state (even a
    duplicate, which otherwise collapses); ``truncated`` says if any was.
    A negative limit is an ExplorerError.
    """
    for name, limit in (("max_states", max_states), ("max_transitions", max_transitions)):
        if limit < 0:
            raise ExplorerError(f"{name} must not be negative, got {limit}")
    domains = infer_domains(machine)
    order = machine.variables
    from . import codegen  # at first use, as a process may explore nothing

    holds = codegen.compile_predicate(machine.invariant, order)
    init = codegen.compile_operation(machine.initialisation, machine, initialisation=True)
    labels = tuple(sorted_labels(name for name, _ in machine.operations))
    # Per operation: its label code, its function, the positions of its key
    # and its memo, key -> (raw result count, deduplicated successor ids).
    ops = [
        (
            labels.index(name),
            codegen.compile_operation(body, machine),
            _key_positions(body, order),
            {},
        )
        for name, body in machine.operations
    ]

    started = time.process_time()
    ids: dict[tuple, int] = {}  # the id of each reached valuation
    rows: list[tuple] = []  # the valuation of each id
    for values in init((codegen.UNSET,) * len(order)):
        missing = [name for name, value in zip(order, values) if value is codegen.UNSET]
        if missing:
            raise InitialisationError(
                f"initialisation does not assign {missing[0]!r}"
            )
        if values not in ids:
            ids[values] = len(rows)
            rows.append(values)
    if not rows:
        raise InitialisationError("initialisation is unsatisfiable")
    n_initial = len(rows)

    ok: list[bool] = []
    post = array("q")
    # The edges in runs: (state, label code, count) per operation run at a
    # state, whose posts are the next count entries of ``post``.
    runs = array("q")
    cut: set[int] = set()
    for state, row in enumerate(rows):  # rows grows while it is walked
        ok.append(holds(row))
        if not ok[-1]:
            continue  # violating states are terminal
        for code, run, key_at, memo in ops:
            if key_at is not None:
                key = tuple(map(row.__getitem__, key_at))
                hit = memo.get(key)
                # Reused only where even the raw results stay within the
                # transition limit, so that none can be cut, or where the
                # limit is already reached, so that each is; near the limit
                # the loop below decides.
                if hit is not None:
                    n_raw, targets = hit
                    if len(post) + n_raw <= max_transitions:
                        post.extend(targets)
                        runs.extend((state, code, len(targets)))
                        continue
                    if len(post) >= max_transitions:
                        cut.add(state)  # n_raw > 0 here
                        continue
            start = len(post)
            results = run(row)
            seen: set[int] = set()
            for values in results:
                target = ids.get(values)
                new = target is None
                if (new and len(rows) >= max_states) or len(post) >= max_transitions:
                    cut.add(state)
                    continue
                if new:
                    target = ids[values] = len(rows)
                    rows.append(values)
                elif target in seen:
                    continue
                seen.add(target)
                post.append(target)
            if len(post) > start:
                runs.extend((state, code, len(post) - start))
            if key_at is not None and state not in cut:  # none was dropped
                memo[key] = (len(results), post[start:])
    cpu_seconds = time.process_time() - started
    peak = 0
    if meter_memory:
        # Lifetime peak RSS of the process (kilobytes on Linux).
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    state_of, code_of, count = np.frombuffer(runs, dtype=np.int64).reshape(-1, 3).T
    pre, label = np.repeat(state_of, count), np.repeat(code_of, count)
    post = np.frombuffer(post, dtype=np.int64)
    state_ok = np.array(ok, dtype=bool)
    violates, live = violations(pre, post, state_ok, cut)
    return ExplorationResult(
        machine_name=machine.name,
        variable_order=order,
        rows=rows,
        state_ok=state_ok,
        n_initial=n_initial,
        labels=labels,
        pre=pre,
        label=label,
        post=post,
        violates=violates,
        live=live,
        truncated=bool(cut),
        cpu_seconds=cpu_seconds,
        peak_memory_bytes=peak,
        domains=domains,
        holds=holds,
    )


def check_goal(result: ExplorationResult, goal: Predicate) -> bool:
    """True when some derived state satisfies the goal predicate."""
    declared = set(result.variable_order)
    undeclared = free_variables(goal) - declared
    if undeclared:
        raise EvalTypeError(
            f"goal references undeclared variable {sorted(undeclared)[0]!r}"
        )
    if bound_references(goal):
        raise EvalTypeError("goal predicates cannot use bound identifiers")
    from . import codegen

    return any(map(codegen.compile_predicate(goal, result.variable_order), result.rows))


def result_header(result: ExplorationResult) -> dict:
    """Machine, variables, summary and metering of one exploration."""
    return {
        "machine": result.machine_name,
        "variables": list(result.variable_order),
        "summary": result.summary,
        "metering": result.metering,
    }


def write_result(result: ExplorationResult, stream) -> None:
    """``result_header`` plus every transition as its canonical object,
    canonically sorted and flagged ``violates``: the ``json.dumps`` text of
    that document at indent 2.  Each state's object is rendered once
    (``state_texts``) and the transitions are written a chunk at a time."""
    head = json.dumps(result_header(result), indent=2)
    stream.write(head[: -len("\n}")] + ',\n  "transitions": [')
    # A state object sits two levels into an entry that is itself indented
    # by four spaces.
    states = [s.replace("\n", "\n      ") for s in state_texts(result, indent=2)]
    ops = [json.dumps(name) for name in result.labels]
    flags = ("false", "true")
    separator = "\n"
    for ids, pre, label, post in canonical_edges(result):
        violates = result.violates[ids].tolist()
        stream.write(separator + ",\n".join(
            f'    {{\n      "pre": {states[p]},\n      "op": {ops[c]},\n'
            f'      "post": {states[q]},\n      "violates": {flags[v]}\n    }}'
            for p, c, q, v in zip(pre, label, post, violates)
        ))
        separator = ",\n"
    stream.write("\n  ]\n}\n" if len(result.pre) else "]\n}\n")
