"""The benchmark's own tests, as part of this suite.

``perfbench/tests`` checks what the benchmark reads of bqual: the set-form
metrics and the exploration's object views among them.  Its ``conftest``
clashes with ``tests/conftest.py`` in one pytest session, so it runs in a
child process from the root of the checkout.
"""

from __future__ import annotations

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
