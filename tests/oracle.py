"""Set forms and the reference interpreter that only the tests read.

bqual codes transition sets as integer arrays (``lts.code_relations``).
The brute-force alignment oracle and the set formulas of the tests work on
sets instead: a state is its value row, a transition the triple
``(pre row, operation, post row)`` (``lts.Transition``), and its pair the
label-erased ``(pre row, post row)``.  Here are their flattened token
lists, total size and the positional agreement of two of them, plus small
readers of an exploration.  They share only the value types with bqual.
``plan_to_json`` writes a plan file from a plan's ids, each list ordered
by ``Relation.canonical`` as ``mutation.plan_from_json`` orders it.

``explore`` runs each operation as a generated function over a value row.
The reference interpreter below runs the same machine as closures over a
dict environment, one closure per AST node: ``compile_expression``,
``compile_predicate`` and ``compile_substitution``.  It shares only the
domain inference and the error classes with bqual, so the set walk of the
tests (``conftest.independent_explore``) can catch a generator bug.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from bqual.alignment import AlignmentError
from bqual.bmachine import (
    BOOL_SET,
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
    RangeMembership,
    Select,
    Sequence,
    SetMembership,
    Skip,
    TruePredicate,
    VarRef,
)
from bqual.explorer import EvalTypeError, UnboundVariableError, bound_domains
from bqual.lts import (
    KIND_BOOL,
    KIND_ENUM,
    KIND_INT,
    StructureError,
    Value,
    boolval,
    enumval,
    intval,
    relation_of,
)

FlatList = tuple
Row = tuple  # a state's values in declaration order


class StatePair(NamedTuple):
    """A transition with its operation label erased."""

    pre: Row
    post: Row


def pair_of(t) -> StatePair:
    return StatePair(t[0], t[2])


def pairs_of(transitions: Iterable) -> frozenset:
    """Label-erasing projection; duplicates collapse."""
    return frozenset(map(pair_of, transitions))


def labels_of(transitions: Iterable) -> frozenset:
    """The distinct operation labels appearing in a transition set."""
    return frozenset(t[1] for t in transitions)


def _row(row: Row, order: tuple[str, ...]) -> Row:
    """``row``, unless it is not one value per variable of ``order``."""
    if len(row) < len(order):
        raise StructureError(f"state is missing variable {order[len(row)]!r}")
    if len(row) > len(order):
        raise StructureError(f"state has {len(row)} values for {len(order)} variables")
    return row


def flatten_transition(t, variable_order: Iterable[str]) -> FlatList:
    """Flatten to ``(pre values..., label, post values...)`` -- 2N+1 tokens
    for N variables, values in declaration order."""
    order = tuple(variable_order)
    pre, label, post = t
    return _row(pre, order) + (label,) + _row(post, order)


def flatten_pair(p: StatePair, variable_order: Iterable[str]) -> FlatList:
    """Flatten to ``(pre values..., post values...)`` -- 2N tokens."""
    order = tuple(variable_order)
    return _row(p[0], order) + _row(p[1], order)


def flatten(element, variable_order: Iterable[str]) -> FlatList:
    """A transition triple or a ``StatePair``, flattened."""
    if isinstance(element, StatePair):
        return flatten_pair(element, variable_order)
    return flatten_transition(element, variable_order)


def set_size(elements: Iterable, variable_order: Iterable[str]) -> int:
    """Total number of tokens over all flattened elements: 2N+1 per
    transition and 2N per state pair, for N variables."""
    return sum(len(flatten(e, variable_order)) for e in elements)


def agreement(a: FlatList, b: FlatList) -> int:
    """Number of positions where the two flattened lists agree."""
    if len(a) != len(b):
        raise AlignmentError(f"flattened lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x == y)


def value_of(result, state: Row, name: str) -> Value:
    """The value that ``state``, a row of ``result``, holds for ``name``."""
    return state[result.variable_order.index(name)]


def initial_states(result) -> frozenset:
    """The initial states of an exploration, as rows."""
    return frozenset(result.rows[: result.n_initial])


def operation_names(machine) -> tuple[str, ...]:
    """A machine's operation names, in declaration order."""
    return tuple(name for name, _ in machine.operations)


def plan_to_json(result, plan) -> dict:
    """The JSON object of a plan on ``result``'s ids, each list in canonical
    order."""
    rows, order, labels = [*result.rows, *plan.fresh], result.variable_order, result.labels

    def transitions(*columns) -> list:
        triples = [(rows[p], labels[c], rows[q]) for p, c, q in zip(*map(list, columns))]
        canonical = relation_of(triples, order).canonical[1].tolist()
        return [
            {"pre": dict(zip(order, map(Value.to_json, pre))), "op": op,
             "post": dict(zip(order, map(Value.to_json, post)))}
            for pre, op, post in map(triples.__getitem__, canonical)
        ]

    m = plan.missing
    obj = {
        "extra": transitions(plan.pre, plan.label, plan.post),
        "missing": transitions(result.pre[m], result.label[m], result.post[m]),
        "seed": plan.seed,
    }
    if plan.label_scope is not None:
        obj["label_scope"] = plan.label_scope
    return obj


# --- the reference interpreter: closures over a dict environment ---------------


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
        domains = bound_domains(sub, machine)
        valuations = list(itertools.product(*(map(d.value, range(d.size)) for d in domains)))
        where = compile_predicate(sub.where)
        body = compile_substitution(sub.body, machine)

        def any_choice(env):
            out = []
            for vals in valuations:
                inner = env.copy()
                for name, v in zip(identifiers, vals):
                    inner[name] = v
                if where(inner):
                    out.extend(body(inner))
            return out

        return any_choice
    if isinstance(sub, Skip):
        return lambda env: (env,)
    raise TypeError(f"not a substitution: {type(sub).__name__}")
