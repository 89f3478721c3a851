"""Explorations against a committed golden file.

``tests/golden/walks.jsonl`` holds, one walk a line, the summary and the
sha256 digests of every array an exploration keeps: each state's JSON text
by id (``state_texts``), ``pre``, ``label``, ``post``, ``state_ok``,
``violates`` and ``live``.  The walks are the corpus clocks CM1-CM6, the
jump clocks of the ``trials-large``, ``align-required`` and ``explore-cm6``
benchmark workloads under seeds 1-3, the property suite's ``_DUPLICATES``
and ``_UNORDERED`` machines, and 20 runs whose limits fall inside the
blocks of ``set_time`` successors that repeat from state to state: CM6,
and a jump clock whose ``set_time`` yields each target twice in a row
(Twice), one run of which stops exactly on a block's last new successor
with its duplicate still to come.  A change to how the walk is computed
that keeps its ids, order and limits leaves the file byte-identical.

After an intended change to the walk, rewrite it with
``PYTHONPATH=src python tests/test_walk_golden.py --freeze``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from bqual.explorer import explore
from bqual.lts import state_texts
from bqual.parser import parse_machine
from conftest import corpus_source
from test_properties import _DUPLICATES, _UNORDERED

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import jumpclock  # noqa: E402
from workloads import JUMP_SIZES  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "walks.jsonl"

# set_time onto 03:00 and 03:01, each twice: from every state but the first
# its block is 4 raw successors of which 2 are new, with a duplicate last.
TWICE = jumpclock.machine_text((3,), 2).replace(
    "mm : 0..1 &", "mm : 0..1 & b : 0..1 &"
).replace("ANY hh, mm", "ANY hh, mm, b")

# CM6 adds 1,441 edges per state (one clock step, then the 1,440 set_time
# targets), so state s's set_time block is edges 1441·s + 1 .. 1441·s + 1440.
BLOCK = 1441
CM6_LIMITS = [
    {"max_transitions": BLOCK + 1},  # stops as state 1's block starts
    {"max_transitions": BLOCK + 2},
    {"max_transitions": 2 * BLOCK - 1},  # one short of the block's end
    {"max_transitions": 2 * BLOCK},  # the block fits exactly
    {"max_transitions": 2 * BLOCK + 1},
    {"max_transitions": 3 * BLOCK + 700},
    {"max_transitions": 10 * BLOCK},
    {"max_transitions": 60 * BLOCK + 5},  # past the first inc_hour
    {"max_transitions": 100 * BLOCK + 1440},
    {"max_transitions": 150 * BLOCK + 1},
    {"max_states": 2},
    {"max_states": 40, "max_transitions": 1000},
]
# Twice adds 3 edges per state (one clock step and 2 set_time targets) from
# 3 at the first state: state s's set_time block is edges 3·s + 1 .. 3·s + 2.
TWICE_LIMITS = [
    {"max_transitions": 4},
    {"max_transitions": 5},
    {"max_transitions": 6},  # the last new successor, its duplicate after
    {"max_transitions": 7},
    {"max_transitions": 3 * 40 + 2},
    {"max_transitions": 3 * 500},
    {"max_states": 3},
    {"max_states": 5, "max_transitions": 9},
]


def _walks():
    """(case name, machine source, limits) of every golden walk."""
    for name in ("CM1", "CM2", "CM3", "CM4", "CM5", "CM6"):
        yield name, corpus_source(f"{name}.mch"), {}
    for workload, (size, minutes) in JUMP_SIZES.items():
        for seed in (1, 2, 3):
            hours = jumpclock.draw_hours(seed, size)
            yield f"{workload} seed={seed}", jumpclock.machine_text(hours, minutes), {}
    yield "Dup", _DUPLICATES, {}
    yield "Unordered", _UNORDERED, {}
    yield "Twice", TWICE, {}
    for name, source, cases in (
        ("CM6", corpus_source("CM6.mch"), CM6_LIMITS), ("Twice", TWICE, TWICE_LIMITS)
    ):
        for limits in cases:
            yield f"{name} {json.dumps(limits, sort_keys=True)}", source, limits


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line(case: str, source: str, limits: dict) -> str:
    result = explore(parse_machine(source), meter_memory=False, **limits)
    arrays = {
        "pre": result.pre, "label": result.label, "post": result.post,
        "state_ok": result.state_ok, "violates": result.violates, "live": result.live,
    }
    return json.dumps({
        "case": case,
        "summary": result.summary,
        "rows": _digest("\n".join(state_texts(result)).encode("utf-8")),
        **{
            name: _digest(np.ascontiguousarray(array, array.dtype.newbyteorder("<")).tobytes())
            for name, array in arrays.items()
        },
    })


def golden_lines() -> list[str]:
    return [_line(*walk) for walk in _walks()]


def test_walks_match_golden():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert golden_lines() == golden


def freeze() -> None:
    GOLDEN.write_text("\n".join(golden_lines()) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: test_walk_golden.py --freeze")
    freeze()
