"""Compile predicates and substitutions to Python functions over value rows.

A predicate or substitution becomes the source text of one Python function
of a value row (the tuple of a state's values in declaration order), which
the builtin ``compile`` builds.  No machine text enters that source:
variable i is the local ``_v<i>``, bound identifiers and intermediate values
are numbered locals, and values, domains, set names and the names that
error messages quote are constants in the function's namespace.
Arithmetic is one statement per operation, left operand first; a ``&`` or
``or`` chain is one n-ary ``and`` or ``or``, so it short-circuits as the
language does.  A part nested deeper than ``_NESTING`` (Python refuses 20
nested loops, 100 indentation levels and 200 parentheses) becomes a
function of its own, called with the locals in scope.

Each check raises the error of the language, class and message, where the
reference interpreter of the tests (``tests/oracle.py``) raises it: an
operator's operands are evaluated before their kinds are checked, and a
sequence runs each step on every result of the step before it before the
next step runs on any.  ``explore`` imports this module at its first call,
so a process that explores nothing neither compiles nor keeps it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

from .bmachine import (
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
    chain,
)
from .explorer import EvalTypeError, UnboundVariableError, bound_domains
from .lts import KIND_BOOL, KIND_ENUM, KIND_INT, Value, boolval, enumval, intval

_NESTING = 16
UNSET = object()  # a variable the initialisation has not assigned yet


def _arithmetic_error(op, a, b):
    raise EvalTypeError(f"arithmetic {op!r} needs integers, got {a.kind} and {b.kind}")


def _comparison_error(a, b):
    raise EvalTypeError(f"cannot compare {a.kind} with {b.kind}")


def _ordering_error(op, a, b):
    raise EvalTypeError(f"ordering {op!r} needs integers, got {a.kind} and {b.kind}")


def _range_error():
    raise EvalTypeError("range membership needs integers")


def _unbound(name):
    raise UnboundVariableError(f"variable {name!r} read before assignment")


_RUNTIME = {
    "_INT": KIND_INT,
    "_UNSET": UNSET,
    "_intval": intval,
    "_product": itertools.product,
    "_arithmetic_error": _arithmetic_error,
    "_comparison_error": _comparison_error,
    "_ordering_error": _ordering_error,
    "_range_error": _range_error,
    "_unbound": _unbound,
}
_KINDS = {KIND_INT: "_INT", KIND_BOOL: "_BOOL", KIND_ENUM: "_ENUM"}
_RUNTIME.update((name, kind) for kind, name in _KINDS.items())
# The operators written into the source, each as itself.
_OPERATORS = {op: op for op in ("+", "-", "*", "<", "<=", ">", ">=")}
# The operand fields of each atom, in the order they are evaluated.
_OPERANDS = {
    Comparison: ("left", "right"),
    RangeMembership: ("expr", "low", "high"),
    SetMembership: ("expr",),
}


def _steps(sub) -> tuple:
    return sub.steps if isinstance(sub, Sequence) else (sub,)


def _appender(results: str):
    """The statement that appends an environment's row to ``results``."""
    return lambda env: f"{results}.append(({', '.join(env)},))"


class _Generator:
    """Writes the source of one row function and of the functions it calls,
    then builds them.  ``variables`` fixes the row order; with ``checked``
    every read of a variable checks that it is assigned (the
    initialisation, whose row starts as ``UNSET``)."""

    def __init__(self, variables, machine=None, checked=False):
        self.index = {name: i for i, name in enumerate(variables)}
        self.machine = machine
        self.checked = checked
        self.namespace = dict(_RUNTIME)
        self.constants: dict = {}  # (type, value) -> name
        self.values: dict = {}  # name -> Value, for the constant values
        self.functions: list[list[str]] = []
        self.lines: list[str] = []
        self.count = 0

    def fresh(self, prefix: str = "_t") -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def constant(self, value) -> str:
        name = self.constants.get((type(value), value))
        if name is None:
            name = self.constants[type(value), value] = self.fresh("_c")
            self.namespace[name] = value
            if isinstance(value, Value):
                self.values[name] = value
        return name

    def write(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def function(self, params, body) -> str:
        """Write a function of ``params`` whose body ``body()`` writes at
        depth 1, and return its name."""
        name = self.fresh("_f")
        outer, self.lines = self.lines, [f"def {name}({', '.join(params)}):"]
        body()
        self.functions.append(self.lines)
        self.lines = outer
        return name

    def row_function(self, body) -> Callable:
        """Build the function of one value row whose body ``body(env)``
        writes over the row's locals."""
        env = [f"_v{i}" for i in range(len(self.index))]

        def write():
            self.write(1, f"{', '.join(env)}, = row")
            body(env)

        name = self.function(["row"], write)
        # The functions are built inside ``_build``, so that they reach each
        # other as closure cells and none is referenced from its own
        # namespace: no reference cycle keeps them alive.
        lines = [f"    {line}" for function in self.functions for line in function]
        source = "\n".join(["def _build():", *lines, f"    return {name}"])
        exec(compile(source, "<bqual generated>", "exec"), self.namespace)
        return self.namespace.pop("_build")()

    def call(self, env, bound, body) -> str:
        """Write a function of the variables and bound identifiers in scope
        whose body ``body(env, bound)`` writes at depth 1, and return the
        call of it on ``env`` and ``bound``."""
        params = [f"_v{i}" for i in range(len(env))]
        name = self.function([*params, *bound.values()], lambda: body(params, bound))
        return f"{name}({', '.join([*env, *bound.values()])})"

    # Expressions: statements at ``depth`` that leave each value in a name.

    def operand(self, expr, env, bound) -> str | None:
        """The name holding a leaf's value, or None when it takes statements
        (arithmetic, a checked or out-of-scope read)."""
        if isinstance(expr, IntLit):
            return self.constant(intval(expr.value))
        if isinstance(expr, BoolLit):
            return self.constant(boolval(expr.value))
        if isinstance(expr, EnumLit):
            return self.constant(enumval(expr.set_name, expr.element))
        if isinstance(expr, VarRef) and expr.name in self.index and not self.checked:
            return env[self.index[expr.name]]
        if isinstance(expr, BoundRef):
            return bound.get(expr.name)
        return None

    def expression(self, expr, env, bound, depth: int) -> str:
        """Write the statements that evaluate ``expr``, left operand before
        right, and return the name that holds its value."""
        names: list[str] = []
        stack = [expr]
        while stack:  # post-order without recursion: a chain can be any length
            node = stack.pop()
            if isinstance(node, BinaryExpr):
                stack += (node.op, node.right, node.left)
            elif isinstance(node, str):  # an operator whose operands are done
                b, a = names.pop(), names.pop()
                names.append(self.arithmetic(node, a, b, depth))
            else:
                names.append(self.leaf(node, env, bound, depth))
        return names[0]

    def leaf(self, expr, env, bound, depth: int) -> str:
        name = self.operand(expr, env, bound)
        if name is not None:
            return name
        if not isinstance(expr, (VarRef, BoundRef)):
            raise TypeError(f"not an expression: {type(expr).__name__}")
        message = self.constant(expr.name)
        if isinstance(expr, VarRef) and expr.name in self.index:
            name = env[self.index[expr.name]]
            self.write(depth, f"if {name} is _UNSET: _unbound({message})")
            return name
        self.write(depth, f"_unbound({message})")
        return "_UNSET"

    def is_int(self, name: str) -> bool:
        return name in self.values and self.values[name].kind == KIND_INT

    def payload(self, name: str) -> str:
        value = self.values.get(name)
        return f"{name}.payload" if value is None else self.constant(value.payload)

    def kind(self, name: str) -> str:
        return _KINDS[self.values[name].kind] if name in self.values else f"{name}.kind"

    def int_checks(self, names) -> list[str]:
        return [f"{name}.kind == _INT" for name in names if not self.is_int(name)]

    def arithmetic(self, op: str, a: str, b: str, depth: int) -> str:
        checks = [f"{name}.kind != _INT" for name in (a, b) if not self.is_int(name)]
        if checks:
            error = f"_arithmetic_error({self.constant(op)}, {a}, {b})"
            self.write(depth, f"if {' or '.join(checks)}: {error}")
        out = self.fresh()
        self.write(depth, f"{out} = _intval({self.payload(a)} {_OPERATORS[op]} {self.payload(b)})")
        return out

    # Predicates: one expression, ``depth`` parentheses deep.

    def predicate(self, pred, env, bound, depth: int = 1) -> str:
        if depth > _NESTING:

            def body(env, bound):
                self.write(1, f"return {self.predicate(pred, env, bound)}")

            return self.call(env, bound, body)
        if isinstance(pred, (And, Or)):
            parts = [self.predicate(p, env, bound, depth + 1) for p in chain(pred, type(pred))]
            return f"({(' and ' if isinstance(pred, And) else ' or ').join(parts)})"
        if isinstance(pred, Not):
            return f"(not {self.predicate(pred.inner, env, bound, depth + 1)})"
        if isinstance(pred, TruePredicate):
            return "True"
        if type(pred) not in _OPERANDS:
            raise TypeError(f"not a predicate: {type(pred).__name__}")
        exprs = [getattr(pred, field) for field in _OPERANDS[type(pred)]]
        names = [self.operand(expr, env, bound) for expr in exprs]
        if None not in names:
            return self.atom(pred, names)

        def body(env, bound):  # the operands take statements, in order
            names = [self.expression(expr, env, bound, 1) for expr in exprs]
            self.write(1, f"return {self.atom(pred, names)}")

        return self.call(env, bound, body)

    def atom(self, pred, names) -> str:
        """A comparison or membership over the names of its operands' values,
        which raises as the kind checks of the language say."""
        if isinstance(pred, SetMembership):
            (subject,) = names
            if pred.set_name == BOOL_SET:
                return f"({subject}.kind == _BOOL)"
            set_name = self.constant(pred.set_name)
            return f"({subject}.kind == _ENUM and {subject}.payload[0] == {set_name})"
        if isinstance(pred, RangeMembership):
            subject, low, high = map(self.payload, names)
            test, checks = f"{low} <= {subject} <= {high}", self.int_checks(names)
            error = "_range_error()"
        elif pred.op in ("=", "/="):
            a, b = names
            test = f"{self.payload(a)} {'==' if pred.op == '=' else '!='} {self.payload(b)}"
            kinds = (self.kind(a), self.kind(b))
            checks = [] if kinds[0] == kinds[1] else [" == ".join(kinds)]
            error = f"_comparison_error({a}, {b})"
        else:
            a, b = names
            test = f"{self.payload(a)} {_OPERATORS[pred.op]} {self.payload(b)}"
            checks = self.int_checks(names)
            error = f"_ordering_error({self.constant(pred.op)}, {a}, {b})"
        return f"({test} if {' and '.join(checks)} else {error})" if checks else f"({test})"

    # Substitutions: statements at ``depth``; ``emit(env)`` is the statement
    # that hands on one result.

    def sequence(self, steps, env, bound, emit, depth: int) -> None:
        """Run each step on every result of the steps before it before the
        next step runs on any.  The steps fall into blocks: a block ends at a
        step that is no assignment or skip, and after the first block also
        at an assignment that can raise.  Each block but the last collects
        its results in a list, which the next block loops over."""
        if depth > _NESTING:
            call = self.call(env, bound, lambda env, bound: self.collect(steps, env, bound))
            results = [self.fresh() for _ in env]
            self.write(depth, f"for {', '.join(results)}, in {call}:")
            self.write(depth + 1, emit(results))
            return
        blocks: list[list] = [[]]
        for step in steps:
            blocks[-1].append(step)
            raises = isinstance(step, Assign) and self.operand(step.expr, env, bound) is None
            if not isinstance(step, (Assign, Skip)) or (raises and len(blocks) > 1):
                blocks.append([])
        if not blocks[-1]:
            blocks.pop()
        source = None
        for k, block in enumerate(blocks, start=1 - len(blocks)):
            at, out = depth, emit
            if k:  # not the last block
                results = self.fresh("_s")
                self.write(depth, f"{results} = []")
                out = _appender(results)
            if source is not None:
                env = [self.fresh() for _ in env]
                self.write(depth, f"for {', '.join(env)}, in {source}:")
                at = depth + 1
            for step in block[:-1]:
                if isinstance(step, Assign):
                    env = self.assign(step, env, bound, at)
            self.step(block[-1], env, bound, out, at)
            if k:
                source = results

    def collect(self, steps, env, bound) -> None:
        """Write a function body that returns the list of the rows that
        ``steps`` yield."""
        self.write(1, "_out = []")
        self.sequence(steps, env, bound, _appender("_out"), 1)
        self.write(1, "return _out")

    def step(self, sub, env, bound, emit, depth: int) -> None:
        if isinstance(sub, Assign):
            self.write(depth, emit(self.assign(sub, env, bound, depth)))
        elif isinstance(sub, Skip):
            self.write(depth, emit(env))
        elif isinstance(sub, Sequence):
            self.sequence(sub.steps, env, bound, emit, depth)
        elif isinstance(sub, Precondition):
            self.write(depth, f"if {self.predicate(sub.guard, env, bound)}:")
            self.sequence(_steps(sub.body), env, bound, emit, depth + 1)
        elif isinstance(sub, Select):
            for guard, body in sub.branches:
                self.write(depth, f"if {self.predicate(guard, env, bound)}:")
                self.sequence(_steps(body), env, bound, emit, depth + 1)
        elif isinstance(sub, AnyChoice):
            listed = (tuple(map(d.value, range(d.size))) for d in bound_domains(sub, self.machine))
            domains = [self.constant(values) for values in listed]
            names = [self.fresh("_b") for _ in domains]
            if len(names) > 1:
                self.write(depth, f"for {', '.join(names)} in _product({', '.join(domains)}):")
            else:
                self.write(depth, f"for {names[0]} in {domains[0]}:")
            inner = {**bound, **dict(zip(sub.identifiers, names))}
            self.write(depth + 1, f"if {self.predicate(sub.where, env, inner)}:")
            self.sequence(_steps(sub.body), env, inner, emit, depth + 2)
        else:
            raise TypeError(f"not a substitution: {type(sub).__name__}")

    def assign(self, sub, env, bound, depth: int) -> list[str]:
        value = self.expression(sub.expr, env, bound, depth)
        env = list(env)
        env[self.index[sub.variable]] = value
        return env


def compile_predicate(pred, variables: tuple[str, ...]) -> Callable[[tuple], bool]:
    """``pred`` as one generated function of a value row in ``variables``
    order, returning whether the row satisfies it."""
    gen = _Generator(variables)
    return gen.row_function(lambda env: gen.write(1, f"return {gen.predicate(pred, env, {})}"))


def compile_operation(
    sub, machine: MachineAST, *, initialisation: bool = False
) -> Callable[[tuple], Iterable[tuple]]:
    """``sub`` as one generated function of a value row, returning its
    result rows in order.  The initialisation's function takes the row of
    ``UNSET`` and checks each read."""
    gen = _Generator(machine.variables, machine, checked=initialisation)
    return gen.row_function(lambda env: gen.collect(_steps(sub), env, {}))
