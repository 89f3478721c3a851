from __future__ import annotations

import random
from pathlib import Path

import pytest

from bqual.explorer import compile_substitution, explore
from bqual.lts import FlatList, State, Transition, Value, intval
from bqual.parser import parse_machine

CORPUS = Path(__file__).parent / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / name


def corpus_source(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


def _machine_fixture(name):
    @pytest.fixture(scope="session", name=f"{name.lower()}_machine")
    def machine():
        return parse_machine(corpus_source(f"{name}.mch"))

    return machine


def _result_fixture(name):
    @pytest.fixture(scope="session", name=f"{name.lower()}_result")
    def result(request):
        machine = request.getfixturevalue(f"{name.lower()}_machine")
        return explore(machine, meter_memory=False)

    return result


for _name in ("CM1", "CM2", "CM3", "CM4", "CM5", "CM6"):
    globals()[f"_{_name.lower()}_machine"] = _machine_fixture(_name)
    globals()[f"_{_name.lower()}_result"] = _result_fixture(_name)


def enumerate_substitution(sub, state: State, machine=None) -> set:
    """All post-states a substitution can reach from ``state``.

    ``machine`` is only needed when a WHERE constrains a bound identifier to
    a declared enumerated set.
    """
    run = compile_substitution(sub, machine)
    order = state.variables
    return {
        State(order, tuple(env[v] for v in order))
        for env in run(dict(zip(order, state.values)))
    }


# Small random transition systems for oracle and property testing.
PROPERTY_ORDER = ("x", "y")
PROPERTY_LABELS = "abc"


def random_transition_set(rng: random.Random, max_elements: int = 7) -> frozenset:
    out = set()
    for _ in range(rng.randint(0, max_elements)):
        pre = State(
            PROPERTY_ORDER, (intval(rng.randint(0, 2)), intval(rng.randint(0, 2)))
        )
        post = State(
            PROPERTY_ORDER, (intval(rng.randint(0, 2)), intval(rng.randint(0, 2)))
        )
        out.add(Transition(pre, rng.choice(PROPERTY_LABELS), post))
    return frozenset(out)


def token_sort_key(token):
    """Deterministic ordering key for a flattened token (Value or label)."""
    if isinstance(token, Value):
        return ("v",) + token.sort_key()
    return ("label", token)


def flat_sort_key(flat: FlatList):
    return tuple(token_sort_key(tok) for tok in flat)


def brute_force_similarity(left, right, variable_order) -> int:
    """Exhaustive maximum over all injective partial matchings, memoized on
    (next left element, used-rights bitmask)."""
    from functools import lru_cache

    from bqual.alignment import agreement
    from bqual.lts import flatten

    a = sorted(
        (flatten(e, variable_order) for e in left), key=flat_sort_key
    )
    b = sorted(
        (flatten(e, variable_order) for e in right), key=flat_sort_key
    )
    weights = [[agreement(x, y) for y in b] for x in a]

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == len(a):
            return 0
        top = best(i + 1, used)  # leave element i unmatched
        for j in range(len(b)):
            if not used & (1 << j):
                top = max(top, weights[i][j] + best(i + 1, used | (1 << j)))
        return top

    return best(0, 0)
