"""Seeded plans against a committed golden file.

``tests/golden/plans.jsonl`` holds, one case a line, the sha256 digest of
the compact ``plan_to_json`` text of ``generate_plan`` with its transition
counts (or the ``MutationError`` message it raises) on the
corpus clocks CM1-CM5 and on four small machines: enumerated, boolean and
integer variables (Lamp), states outside the domains (Up), domain states
the machine never reaches (Gate) and a product of the domains past int64
(Wide).  Each machine is drawn under seeds 0-4, unscoped with the default
counts and scoped to each operation with ``capped_counts``; the
machines with a small extra space also draw every free slot of it, and
every machine is asked for plans it cannot have.  A change to how plans are
drawn that keeps them leaves the file byte-identical.

After an intended change to the seeded draws, rewrite it with
``PYTHONPATH=src python tests/test_plan_golden.py --freeze``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from bqual.evaluation import default_mutation_count
from bqual.explorer import explore
from bqual.mutation import (
    MutationError,
    _extra_space,
    capped_counts,
    generate_plan,
)
from bqual.parser import parse_machine
from conftest import corpus_source
from oracle import plan_to_json

GOLDEN = Path(__file__).parent / "golden" / "plans.jsonl"

SMALL = {
    "Lamp": (
        "MACHINE Lamp SETS COLOR = {red, amber, green} VARIABLES light, on, n "
        "INVARIANT light : COLOR & on : BOOL & n : 0..2 "
        "INITIALISATION light := red; on := FALSE; n := 0 OPERATIONS "
        "paint = ANY c WHERE c : COLOR THEN light := c END; "
        "switch_on = SELECT on = FALSE THEN on := TRUE END; "
        "switch_off = SELECT on = TRUE THEN on := FALSE END; "
        "bump = PRE n < 2 THEN n := n + 1 END END"
    ),
    # up leaves x : 0..3 at 4, a reached state outside the domains.
    "Up": (
        "MACHINE Up VARIABLES x INVARIANT x : 0..3 INITIALISATION x := 0 "
        "OPERATIONS up = x := x + 1; down = PRE x > 0 THEN x := x - 1 END END"
    ),
    # 5 and 6 lie in the domain but are never reached.
    "Gate": (
        "MACHINE Gate VARIABLES x INVARIANT x : 0..6 & x /= 4 "
        "INITIALISATION x := 0 OPERATIONS "
        "up = PRE x < 4 THEN x := x + 1 END; "
        "down = PRE x > 0 & x < 3 THEN x := x - 1 END END"
    ),
    # The product of the domains, 10^20, passes 2^63.
    "Wide": (
        "MACHINE Wide VARIABLES a, b, c, d "
        "INVARIANT a : 0..99999 & b : 0..99999 & c : 0..99999 & d : 0..99999 "
        "INITIALISATION a := 0; b := 0; c := 0; d := 0 "
        "OPERATIONS step = PRE a < 3 THEN a := a + 1 END END"
    ),
}
MACHINES = {
    **{name: lambda name=name: corpus_source(f"{name}.mch") for name in
       ("CM1", "CM2", "CM3", "CM4", "CM5")},
    **{name: lambda source=source: source for name, source in SMALL.items()},
}
SEEDS = range(5)
# Machines whose every free extra slot is drawn, which rejects most draws.
FILLED = ("Lamp", "Up", "Gate")


def _case(result, name: str, seed: int, n_extra: int, n_missing: int, scope=None):
    case = f"{name} seed={seed} scope={scope} n_extra={n_extra} n_missing={n_missing}"
    try:
        plan = plan_to_json(result, generate_plan(result, n_extra, n_missing, seed, scope))
    except MutationError as exc:
        return json.dumps({"case": case, "error": str(exc)})
    text = json.dumps(plan, separators=(",", ":"))
    return json.dumps({
        "case": case,
        "extra": len(plan["extra"]),
        "missing": len(plan["missing"]),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    })


def golden_lines() -> list[str]:
    lines = []
    for name, source in MACHINES.items():
        result = explore(parse_machine(source()), meter_memory=False)
        derived = len(result.pre)
        n = default_mutation_count(derived)
        scoped = {op: capped_counts(result, n, n, op) for op in result.label_counts}
        space, occupied = _extra_space(result, list(range(len(result.labels))))
        for seed in SEEDS:
            lines.append(_case(result, name, seed, n, n))
            for op, (n_extra, n_missing) in scoped.items():
                lines.append(_case(result, name, seed, n_extra, n_missing, op))
            if name in FILLED:
                lines.append(_case(result, name, seed, space - occupied, derived))
            if name == "Wide":
                lines.append(_case(result, name, seed, 50, derived))
        # Plans the exploration cannot have.
        lines.append(_case(result, name, 0, space - occupied + 1, 0))
        lines.append(_case(result, name, 0, 0, derived + 1))
        lines.append(_case(result, name, 0, -1, 0))
        lines.append(_case(result, name, 0, 0, -2))
        lines.append(_case(result, name, 0, 1, 0, "no_such_operation"))
    return lines


def test_seeded_plans_match_golden():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert golden_lines() == golden


@pytest.mark.parametrize("name", SMALL)
def test_draw_space_decodes_every_indexed_state(name):
    # The golden decodes only the states a plan alone reaches; this decodes
    # every reached state inside the domains, on Wide from Python ints.
    result = explore(parse_machine(SMALL[name]), meter_memory=False)
    draw_space = result.draw_space
    assert (draw_space.sorted_index.dtype == object) == (name == "Wide")
    placed = list(zip(draw_space.sorted_index.tolist(), draw_space.by_index.tolist()))
    assert len(placed) == len(result.rows) - (name == "Up")
    assert [at for at, _ in placed] == sorted(at for at, _ in placed)
    for at, state in placed:
        assert draw_space.valuation(at) == result.rows[state]


def freeze() -> None:
    GOLDEN.write_text("\n".join(golden_lines()) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: test_plan_golden.py --freeze")
    freeze()
