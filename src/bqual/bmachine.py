"""AST for the bounded machine language.

All nodes are frozen dataclasses, so machines compare structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

BOOL_SET = "BOOL"

COMPARISON_OPS = ("=", "/=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*")


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class EnumLit:
    set_name: str
    element: str


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class BoundRef:
    name: str


@dataclass(frozen=True)
class BinaryExpr:
    op: str  # one of ARITHMETIC_OPS
    left: "Expression"
    right: "Expression"


Expression = Union[IntLit, BoolLit, EnumLit, VarRef, BoundRef, BinaryExpr]


# --- predicates ------------------------------------------------------------


@dataclass(frozen=True)
class TruePredicate:
    pass


@dataclass(frozen=True)
class Comparison:
    op: str  # one of COMPARISON_OPS
    left: Expression
    right: Expression


@dataclass(frozen=True)
class RangeMembership:
    expr: Expression
    low: Expression
    high: Expression


@dataclass(frozen=True)
class SetMembership:
    expr: Expression
    set_name: str


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Not:
    inner: "Predicate"


Predicate = Union[TruePredicate, Comparison, RangeMembership, SetMembership, And, Or, Not]


# --- substitutions ---------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    variable: str
    expr: Expression


@dataclass(frozen=True)
class Sequence:
    steps: tuple["Substitution", ...]


@dataclass(frozen=True)
class Precondition:
    guard: Predicate
    body: "Substitution"


@dataclass(frozen=True)
class Select:
    branches: tuple[tuple[Predicate, "Substitution"], ...]


@dataclass(frozen=True)
class AnyChoice:
    identifiers: tuple[str, ...]
    where: Predicate
    body: "Substitution"


@dataclass(frozen=True)
class Skip:
    pass


Substitution = Union[Assign, Sequence, Precondition, Select, AnyChoice, Skip]


@dataclass(frozen=True)
class MachineAST:
    name: str
    sets: tuple[tuple[str, tuple[str, ...]], ...]
    variables: tuple[str, ...]
    invariant: Predicate
    initialisation: Substitution
    operations: tuple[tuple[str, Substitution], ...]

    @property
    def operation_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.operations)

    @property
    def element_sets(self) -> dict[str, str]:
        """Map each enumerated element name to its set name."""
        out: dict[str, str] = {}
        for set_name, elements in self.sets:
            for element in elements:
                out[element] = set_name
        return out


# --- structural helpers ----------------------------------------------------


def conjuncts(pred: Predicate) -> list[Predicate]:
    """Flatten the top-level conjunction tree."""
    if isinstance(pred, And):
        return conjuncts(pred.left) + conjuncts(pred.right)
    return [pred]


def free_variables(node) -> frozenset:
    """Machine variables referenced anywhere inside a predicate or
    expression (bound identifiers excluded)."""
    out: set[str] = set()
    _collect_refs(node, out, VarRef)
    return frozenset(out)


def bound_references(node) -> frozenset:
    out: set[str] = set()
    _collect_refs(node, out, BoundRef)
    return frozenset(out)


def _collect_refs(node, out: set, ref_type) -> None:
    if isinstance(node, ref_type):
        out.add(node.name)
    elif isinstance(node, BinaryExpr):
        _collect_refs(node.left, out, ref_type)
        _collect_refs(node.right, out, ref_type)
    elif isinstance(node, Comparison):
        _collect_refs(node.left, out, ref_type)
        _collect_refs(node.right, out, ref_type)
    elif isinstance(node, RangeMembership):
        _collect_refs(node.expr, out, ref_type)
        _collect_refs(node.low, out, ref_type)
        _collect_refs(node.high, out, ref_type)
    elif isinstance(node, SetMembership):
        _collect_refs(node.expr, out, ref_type)
    elif isinstance(node, (And, Or)):
        _collect_refs(node.left, out, ref_type)
        _collect_refs(node.right, out, ref_type)
    elif isinstance(node, Not):
        _collect_refs(node.inner, out, ref_type)


def assigned_variables(sub: Substitution) -> frozenset:
    """Every machine variable written somewhere inside a substitution."""
    if isinstance(sub, Assign):
        return frozenset({sub.variable})
    if isinstance(sub, Sequence):
        out: frozenset = frozenset()
        for step in sub.steps:
            out |= assigned_variables(step)
        return out
    if isinstance(sub, Precondition):
        return assigned_variables(sub.body)
    if isinstance(sub, Select):
        out = frozenset()
        for _, body in sub.branches:
            out |= assigned_variables(body)
        return out
    if isinstance(sub, AnyChoice):
        return assigned_variables(sub.body)
    if isinstance(sub, Skip):
        return frozenset()
    raise TypeError(f"not a substitution: {type(sub).__name__}")
