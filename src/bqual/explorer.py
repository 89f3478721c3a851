"""Bounded explicit-state exploration.

Variable domains are read off the invariant's membership conjuncts, the
initialisation and operations are compiled to closures, and the state
space is derived breadth-first.  A transition is classified as violating
when its post-state breaks the invariant or has no outgoing transition
(deadlock-freeness is checked always, as an inherent invariant).  A state
whose successors a limit dropped is not a deadlock: the cut, not the
machine, left it without outgoing transitions.
"""

from __future__ import annotations

import functools
import itertools
import math
import resource
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Collection, Iterable, Mapping

import numpy as np

from .bmachine import (
    And,
    AnyChoice,
    Assign,
    BinaryExpr,
    BoolLit,
    BoundRef,
    Comparison,
    EnumLit,
    IntLit,
    MachineAST,
    Not,
    Or,
    Precondition,
    Predicate,
    RangeMembership,
    Select,
    Sequence,
    SetMembership,
    Skip,
    TruePredicate,
    VarRef,
    bound_references,
    conjuncts,
    free_variables,
)
from .lts import (
    FALSE,
    KIND_BOOL,
    KIND_ENUM,
    KIND_INT,
    TRUE,
    State,
    Transition,
    Value,
    boolval,
    enumval,
    intval,
    sorted_labels,
    state_codes,
    transition_to_json,
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
    low: int
    high: int

    def values(self) -> tuple[Value, ...]:
        return tuple(intval(n) for n in range(self.low, self.high + 1))

    def contains(self, value: Value) -> bool:
        return value.kind == KIND_INT and self.low <= value.payload <= self.high


@dataclass(frozen=True)
class BoolDomain:
    def values(self) -> tuple[Value, ...]:
        return (FALSE, TRUE)

    def contains(self, value: Value) -> bool:
        return value.kind == KIND_BOOL


@dataclass(frozen=True)
class EnumDomain:
    set_name: str
    elements: tuple[str, ...]

    def values(self) -> tuple[Value, ...]:
        return tuple(enumval(self.set_name, e) for e in self.elements)

    def contains(self, value: Value) -> bool:
        return value.kind == KIND_ENUM and value.payload[0] == self.set_name and (
            value.payload[1] in self.elements
        )


Domain = IntRangeDomain | BoolDomain | EnumDomain
DomainMap = dict


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
            return BoolDomain()
        for set_name, elements in machine.sets:
            if set_name == pred.set_name:
                if not elements:
                    raise DomainError(f"enumerated set {set_name!r} is empty")
                return EnumDomain(set_name, elements)
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


def infer_domains(machine: MachineAST) -> DomainMap:
    """One finite domain per variable, from the invariant."""
    missing = "variable {} has no membership conjunct in the invariant"
    order = machine.variables
    domains = _first_domains(order, machine.invariant, VarRef, machine, missing)
    return dict(zip(order, domains))


def _bound_domains(any_node: AnyChoice, machine: MachineAST) -> list:
    missing = "bound identifier {} has no membership conjunct in WHERE"
    return _first_domains(any_node.identifiers, any_node.where, BoundRef, machine, missing)


# --- compilation to closures -------------------------------------------------


def compile_expression(expr):
    if isinstance(expr, IntLit):
        v = intval(expr.value)
        return lambda env: v
    if isinstance(expr, BoolLit):
        v = boolval(expr.value)
        return lambda env: v
    if isinstance(expr, EnumLit):
        v = enumval(expr.set_name, expr.element)
        return lambda env: v
    if isinstance(expr, (VarRef, BoundRef)):
        name = expr.name

        def read(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(
                    f"variable {name!r} read before assignment"
                ) from None

        return read
    if isinstance(expr, BinaryExpr):
        left = compile_expression(expr.left)
        right = compile_expression(expr.right)
        op = expr.op

        def arith(env):
            a = left(env)
            b = right(env)
            if a.kind != KIND_INT or b.kind != KIND_INT:
                raise EvalTypeError(
                    f"arithmetic {op!r} needs integers, got {a.kind} and {b.kind}"
                )
            if op == "+":
                return intval(a.payload + b.payload)
            if op == "-":
                return intval(a.payload - b.payload)
            return intval(a.payload * b.payload)

        return arith
    raise TypeError(f"not an expression: {type(expr).__name__}")


_ORDER_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compile_predicate(pred):
    if isinstance(pred, TruePredicate):
        return lambda env: True
    if isinstance(pred, Comparison):
        left = compile_expression(pred.left)
        right = compile_expression(pred.right)
        op = pred.op
        if op in ("=", "/="):
            want = op == "="

            def equality(env):
                a = left(env)
                b = right(env)
                if a.kind != b.kind:
                    raise EvalTypeError(
                        f"cannot compare {a.kind} with {b.kind}"
                    )
                return (a == b) is want

            return equality
        cmp = _ORDER_OPS[op]

        def ordering(env):
            a = left(env)
            b = right(env)
            if a.kind != KIND_INT or b.kind != KIND_INT:
                raise EvalTypeError(
                    f"ordering {op!r} needs integers, got {a.kind} and {b.kind}"
                )
            return cmp(a.payload, b.payload)

        return ordering
    if isinstance(pred, RangeMembership):
        subject = compile_expression(pred.expr)
        low = compile_expression(pred.low)
        high = compile_expression(pred.high)

        def in_range(env):
            v = subject(env)
            lo = low(env)
            hi = high(env)
            if v.kind != KIND_INT or lo.kind != KIND_INT or hi.kind != KIND_INT:
                raise EvalTypeError("range membership needs integers")
            return lo.payload <= v.payload <= hi.payload

        return in_range
    if isinstance(pred, SetMembership):
        subject = compile_expression(pred.expr)
        set_name = pred.set_name
        if set_name == BOOL_SET:
            return lambda env: subject(env).kind == KIND_BOOL

        def in_set(env):
            v = subject(env)
            return v.kind == KIND_ENUM and v.payload[0] == set_name

        return in_set
    if isinstance(pred, And):
        left = compile_predicate(pred.left)
        right = compile_predicate(pred.right)
        return lambda env: left(env) and right(env)
    if isinstance(pred, Or):
        left = compile_predicate(pred.left)
        right = compile_predicate(pred.right)
        return lambda env: left(env) or right(env)
    if isinstance(pred, Not):
        inner = compile_predicate(pred.inner)
        return lambda env: not inner(env)
    raise TypeError(f"not a predicate: {type(pred).__name__}")


def compile_substitution(sub, machine: MachineAST):
    """Compile to ``fn(env) -> list-of-envs``; every returned env is a fresh
    dict extending ``env`` with the substitution's effects."""
    if isinstance(sub, Assign):
        var = sub.variable
        value_of = compile_expression(sub.expr)

        def assign(env):
            out = env.copy()
            out[var] = value_of(env)
            return (out,)

        return assign
    if isinstance(sub, Sequence):
        if all(isinstance(step, Assign) for step in sub.steps):
            compiled = [(s.variable, compile_expression(s.expr)) for s in sub.steps]

            def fused(env):
                out = env.copy()
                for var, value_of in compiled:
                    out[var] = value_of(out)
                return (out,)

            return fused
        steps = [compile_substitution(s, machine) for s in sub.steps]

        def chained(env):
            envs = (env,)
            for step in steps:
                envs = [after for current in envs for after in step(current)]
            return envs

        return chained
    if isinstance(sub, Precondition):
        guard = compile_predicate(sub.guard)
        body = compile_substitution(sub.body, machine)
        return lambda env: body(env) if guard(env) else ()
    if isinstance(sub, Select):
        branches = [
            (compile_predicate(guard), compile_substitution(body, machine))
            for guard, body in sub.branches
        ]

        def select(env):
            out = []
            for guard, body in branches:
                if guard(env):
                    out.extend(body(env))
            return out

        return select
    if isinstance(sub, AnyChoice):
        identifiers = sub.identifiers
        domains = _bound_domains(sub, machine)
        valuations = list(itertools.product(*(d.values() for d in domains)))
        where = compile_predicate(sub.where)
        body = compile_substitution(sub.body, machine)
        # When the guard only constrains the bound identifiers it can be
        # decided once here instead of once per (state, valuation).
        if not free_variables(sub.where) and bound_references(sub.where) <= set(
            identifiers
        ):
            valuations = [
                vals
                for vals in valuations
                if where(dict(zip(identifiers, vals)))
            ]

            def any_prefiltered(env):
                out = []
                for vals in valuations:
                    inner = env.copy()
                    for name, v in zip(identifiers, vals):
                        inner[name] = v
                    out.extend(body(inner))
                return out

            return any_prefiltered

        def any_general(env):
            out = []
            for vals in valuations:
                inner = env.copy()
                for name, v in zip(identifiers, vals):
                    inner[name] = v
                if where(inner):
                    out.extend(body(inner))
            return out

        return any_general
    if isinstance(sub, Skip):
        return lambda env: (env,)
    raise TypeError(f"not a substitution: {type(sub).__name__}")


# --- exploration --------------------------------------------------------------


class Verdicts(dict):
    """Whether each state satisfies the invariant, evaluated on first lookup.
    An exploration and every system re-derived from it share one map."""

    def __init__(self, holds, variable_order: tuple[str, ...]):
        super().__init__()
        self._holds = holds
        self._order = variable_order

    def __missing__(self, state: State) -> bool:
        ok = self[state] = self._holds(dict(zip(self._order, state.values)))
        return ok


def reach(
    initial: Collection[State],
    successors: Callable[[State], Iterable[Transition]],
    verdicts: Mapping[State, bool],
    max_states: float = math.inf,
    max_transitions: float = math.inf,
) -> tuple[frozenset, frozenset, frozenset]:
    """Breadth-first walk from ``initial``, in its order, that never expands
    a state breaking the invariant.  Returns the reached states, the
    transitions taken, and the states fully expanded: those none of whose
    successors a limit dropped.  A limit cut the walk short exactly when
    some reached state is not fully expanded (which ones a limit keeps
    depends on the order)."""
    reached = set(initial)
    taken: set[Transition] = set()
    frontier = list(initial)
    cut: set[State] = set()
    for state in frontier:  # grows while it is walked
        if not verdicts[state]:
            continue  # violating states are terminal
        for t in successors(state):
            post = t.post
            new = post not in reached
            if (new and len(reached) >= max_states) or len(taken) >= max_transitions:
                cut.add(state)
                continue
            if new:
                reached.add(post)
                frontier.append(post)
            taken.add(t)
    reached = frozenset(reached)
    return reached, frozenset(taken), reached - cut if cut else reached


def violations(
    transitions: frozenset, verdicts: Mapping[State, bool], cut: Collection[State]
) -> tuple[frozenset, set]:
    """The violating transitions and the live states: those with an outgoing
    transition in ``transitions``, or ``cut``, whose successors a limit
    dropped.  A transition violates when its post-state breaks the
    invariant or is not live."""
    live = {t.pre for t in transitions}
    live.update(cut)
    violating = frozenset(
        t for t in transitions if not verdicts[t.post] or t.post not in live
    )
    return violating, live


@dataclass
class ExplorationResult:
    machine_name: str
    variable_order: tuple[str, ...]
    initial_states: frozenset
    states: frozenset
    transitions: frozenset
    ok: frozenset
    violating: frozenset
    deadlock_states: frozenset
    truncated: bool
    cpu_seconds: float
    peak_memory_bytes: int
    verdicts: Verdicts = field(repr=False, compare=False)

    @property
    def summary(self) -> dict:
        """The exploration counts shared by ``bqual explore`` and the report."""
        return {
            "initial_states": len(self.initial_states),
            "states": len(self.states),
            "transitions": len(self.transitions),
            "ok_transitions": len(self.ok),
            "violating_transitions": len(self.violating),
            "deadlock_states": len(self.deadlock_states),
            "truncated": self.truncated,
        }

    @property
    def metering(self) -> dict:
        return {
            "cpu_seconds": self.cpu_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
        }

    @functools.cached_property
    def coding(self) -> "RelationCoding":
        """The derived relation on integer ids, coded on first use."""
        return RelationCoding.of(self)

    @property
    def ordered_states(self) -> tuple[State, ...]:
        """The reachable states in canonical order."""
        return self.coding.states

    @property
    def ordered_transitions(self) -> tuple[Transition, ...]:
        """The derived transitions in canonical order."""
        return self.coding.transitions


@dataclass(frozen=True, eq=False)
class RelationCoding:
    """An exploration's derived relation on integer ids, so that edited
    systems can be re-derived without touching one ``Transition`` per edge
    (``mutation.apply_plan``).

    State ids are canonical ranks (``lts.state_codes``) and label codes
    follow the canonical label order, so ordering the edges by ``key``
    (pre, label, post) puts them in canonical order: edge ``i`` is
    ``transitions[i]``, from state ``pre[i]`` to state ``post[i]``.
    """

    states: tuple[State, ...]  # by id
    transitions: tuple[Transition, ...]  # by edge
    pre: np.ndarray
    label: np.ndarray
    post: np.ndarray
    key: np.ndarray  # strictly increasing
    labels: tuple[str, ...]  # by code
    label_counts: dict[str, int]
    state_id: dict[State, int]
    ok: np.ndarray  # the invariant verdict of each state
    initial: np.ndarray  # ids of the initial states
    violating: np.ndarray  # mask of the violating edges

    @classmethod
    def of(cls, result: "ExplorationResult") -> "RelationCoding":
        states = tuple(result.states)
        loose = tuple(result.transitions)
        size, count = len(loose), len(states)
        # Objects are coded by identity, so no State is hashed per edge.
        rank, _ = state_codes(
            states
            + tuple(map(attrgetter("pre"), loose))
            + tuple(map(attrgetter("post"), loose)),
            result.variable_order,
        )
        names = tuple(map(attrgetter("label"), loose))
        labels = tuple(sorted_labels(names))
        code = {name: i for i, name in enumerate(labels)}
        label = np.fromiter(map(code.__getitem__, names), np.int64, size)
        pre, post = rank[count : count + size], rank[count + size :]
        key = _edge_keys(pre, label, post, len(labels), count)
        order = np.argsort(key)
        states = tuple(states[i] for i in np.argsort(rank[:count]))
        state_id = {state: i for i, state in enumerate(states)}
        coding = cls(
            states=states,
            transitions=tuple(map(loose.__getitem__, order.tolist())),
            pre=pre[order],
            label=label[order],
            post=post[order],
            key=key[order],
            labels=labels,
            label_counts=dict(
                zip(labels, np.bincount(label, minlength=len(labels)).tolist())
            ),
            state_id=state_id,
            ok=np.fromiter(map(result.verdicts.__getitem__, states), bool, count),
            initial=np.array([state_id[s] for s in result.initial_states], np.int64),
            violating=np.zeros(size, dtype=bool),
        )
        coding.violating[coding.edges(result.violating)] = True
        return coding

    def edges(self, transitions: Iterable[Transition]) -> np.ndarray:
        """The edge index of each of ``transitions``, which must be derived."""
        code = {name: i for i, name in enumerate(self.labels)}
        ids = self.state_id
        triples = np.array(
            [(ids[t.pre], code[t.label], ids[t.post]) for t in transitions], np.int64
        ).reshape(-1, 3)
        keys = _edge_keys(*triples.T, len(self.labels), len(self.states))
        return np.searchsorted(self.key, keys)


def _edge_keys(pre, label, post, n_labels: int, n_states: int) -> np.ndarray:
    return (pre * n_labels + label) * n_states + post


def explore(
    machine: MachineAST,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_transitions: int = DEFAULT_MAX_TRANSITIONS,
    meter_memory: bool = True,
) -> ExplorationResult:
    """Breadth-first derivation of the machine's transition system.

    States that violate the invariant are recorded but never expanded;
    ``truncated`` reports whether a limit cut the run short.
    """
    infer_domains(machine)  # every variable must have an enumerable domain
    order = machine.variables
    verdicts = Verdicts(compile_predicate(machine.invariant), order)
    init = compile_substitution(machine.initialisation, machine)
    ops = [
        (name, compile_substitution(body, machine))
        for name, body in machine.operations
    ]

    started = time.process_time()
    pool: dict[tuple, State] = {}  # one State object per valuation
    for env in init({}):
        missing = [v for v in order if v not in env]
        if missing:
            raise InitialisationError(
                f"initialisation does not assign {missing[0]!r}"
            )
        values = tuple(env[v] for v in order)
        if values not in pool:
            pool[values] = State(order, values)
    if not pool:
        raise InitialisationError("initialisation is unsatisfiable")
    initial = list(pool.values())

    def successors(state: State) -> list[Transition]:
        env = dict(zip(order, state.values))
        out = []
        for label, run in ops:
            for result in run(env):
                values = tuple(map(result.__getitem__, order))
                post = pool.get(values)
                if post is None:
                    post = pool[values] = State(order, values)
                out.append(Transition(state, label, post))
        return out

    states, transitions, expanded = reach(
        initial, successors, verdicts, max_states, max_transitions
    )
    cpu_seconds = time.process_time() - started
    peak = 0
    if meter_memory:
        # Lifetime peak RSS of the process (kilobytes on Linux).
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    cut = states - expanded
    violating, live = violations(transitions, verdicts, cut)
    return ExplorationResult(
        machine_name=machine.name,
        variable_order=order,
        initial_states=frozenset(initial),
        states=states,
        transitions=transitions,
        ok=transitions - violating,
        violating=violating,
        deadlock_states=states - live,
        truncated=bool(cut),
        cpu_seconds=cpu_seconds,
        peak_memory_bytes=peak,
        verdicts=verdicts,
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
    holds = compile_predicate(goal)
    order = result.variable_order
    return any(holds(dict(zip(order, s.values))) for s in result.states)


def result_header(result: ExplorationResult) -> dict:
    """Machine, variables, summary and metering of one exploration."""
    return {
        "machine": result.machine_name,
        "variables": list(result.variable_order),
        "summary": result.summary,
        "metering": result.metering,
    }


def serialize_result(result: ExplorationResult) -> dict:
    """``result_header`` plus every transition as its canonical object,
    canonically sorted and flagged ``violates``."""
    return dict(
        result_header(result),
        transitions=[
            dict(transition_to_json(t), violates=(t in result.violating))
            for t in result.ordered_transitions
        ],
    )
