"""The benchmark's own tests and one traced pass, as part of this suite.

``perfbench/tests`` checks what the benchmark reads of bqual: the set-form
metrics on transition triples and the sizes of the exploration's views of
rows and triples among them.  Its ``conftest`` clashes with
``tests/conftest.py`` in one pytest session, so it runs in a child process
from the root of the checkout.  So does one traced pass over every
workload with no timed repeats: only a traced pass runs the benchmark's
hooks, such as the one that counts an exploration's states and
transitions by the sizes of ``result.states`` and ``result.transitions``.
A third child resolves the functions the benchmark traces against
``src``: a traced function that is renamed or deleted drops out of the
benchmark's per-layer view with no more than an ``absent span:`` line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]


def test_traced_pass_is_correct():
    run = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", "all", "--seed", "1", "--seconds", "0", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    outcome = json.loads(run.stdout.splitlines()[-1])
    assert outcome["correct"] is True
    assert outcome["failed"] == 0 < outcome["attempted"]


# Traced targets that name functions no longer in src, until the benchmark
# traces their successors (``write_result`` and ``code_relations``).
KNOWN_ABSENT = {"explorer.serialize", "lts.pairs_of"}


def test_traced_targets_resolve():
    script = (
        "import json, layers, tracer\n"
        "t = tracer.Tracer()\n"
        "t.install(layers.TARGETS)\n"
        "t.uninstall()\n"
        "print(json.dumps(t.absent))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(("src", "perfbench"))},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    assert set(json.loads(run.stdout.splitlines()[-1])) <= KNOWN_ABSENT
