"""The report contract against committed golden files.

The golden files hold the report JSON of the corpus runs without the
metering fields and with corpus paths and the required-transitions path
reduced to file names, and the sha256 digests of the ``bqual explore
--out`` dumps.  A change that keeps the contract leaves every one of them
byte-identical.

After an intended report change, rewrite them with
``PYTHONPATH=src python tests/test_report_contract.py --freeze``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Callable

import pytest

from bqual import cli
from bqual.evaluation import (
    METERING_FIELDS,
    EvaluationConfig,
    evaluate,
    render_report,
)
from conftest import CORPUS, corpus_path

GOLDEN = Path(__file__).parent / "golden"
DUMP_DIGESTS = GOLDEN / "explore-out.sha256.json"


def _against_cm1(name: str) -> EvaluationConfig:
    return EvaluationConfig(
        machine_path=str(corpus_path(f"{name}.mch")),
        reference_path=str(corpus_path("CM1.mch")),
        goals_path=str(corpus_path("goals-cm1.txt")),
        seed=7,
    )


def _fixed(config: EvaluationConfig) -> Callable[[Path], EvaluationConfig]:
    return lambda workdir: config


def _required_cm4(workdir: Path) -> EvaluationConfig:
    """CM2 against the CM4 dump, read back as required transitions."""
    return EvaluationConfig(
        machine_path=str(corpus_path("CM2.mch")),
        required_path=str(explore_out("CM4", workdir)),
    )


# Each report's configuration, given a scratch directory for dumps.
REPORTS: dict[str, Callable[[Path], EvaluationConfig]] = {
    **{
        f"{name}-vs-CM1": _fixed(_against_cm1(name))
        for name in ("CM1", "CM2", "CM3", "CM4", "CM5")
    },
    "CM1-cm5-plan": _fixed(
        EvaluationConfig(
            machine_path=str(corpus_path("CM1.mch")),
            plan_path=str(corpus_path("cm5-plan.json")),
        )
    ),
    "CM2-required-CM4": _required_cm4,
    # The size guard trips for pfcomp, pfcorr and pfappr (23 x 46 > 10).
    "CM2-vs-CM1-guard10": _fixed(
        EvaluationConfig(
            machine_path=str(corpus_path("CM2.mch")),
            reference_path=str(corpus_path("CM1.mch")),
            trials=0,
            size_guard=10,
        )
    ),
}
DUMPS = ("CM1", "CM4")


def _normalised(value):
    """``value`` with corpus paths reduced to file names."""
    if isinstance(value, dict):
        return {k: _normalised(v) for k, v in value.items()}
    if isinstance(value, str) and Path(value).parent == CORPUS:
        return Path(value).name
    return value


def contract_report(config: EvaluationConfig) -> str:
    """The report JSON without metering fields, corpus paths normalised."""
    obj = json.loads(render_report(evaluate(config), "json"))
    obj["metrics"] = {
        k: v for k, v in obj["metrics"].items() if k not in METERING_FIELDS
    }
    obj["provenance"] = _normalised(obj["provenance"])
    source = obj["provenance"]["required_source"]
    if source.get("mode") == "transitions":
        source["path"] = Path(source["path"]).name
    return json.dumps(obj, indent=2) + "\n"


def explore_out(name: str, workdir: Path) -> Path:
    """Write ``bqual explore --out`` for a corpus machine into ``workdir``."""
    path = workdir / f"{name}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(
            ["explore", "--machine", str(corpus_path(f"{name}.mch")), "--out", str(path)]
        )
    assert code == cli.EXIT_OK
    return path


def dump_digest(name: str, workdir: Path) -> str:
    """sha256 of ``bqual explore --out`` for a corpus machine."""
    return hashlib.sha256(explore_out(name, workdir).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name, tmp_path):
    golden = (GOLDEN / f"report-{name}.json").read_text(encoding="utf-8")
    assert contract_report(REPORTS[name](tmp_path)) == golden


def test_explore_dumps_match_golden(tmp_path):
    golden = json.loads(DUMP_DIGESTS.read_text(encoding="utf-8"))
    assert {name: dump_digest(name, tmp_path) for name in DUMPS} == golden


def freeze() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, config in REPORTS.items():
            (GOLDEN / f"report-{name}.json").write_text(
                contract_report(config(Path(workdir))), encoding="utf-8"
            )
        digests = {name: dump_digest(name, Path(workdir)) for name in DUMPS}
    DUMP_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: test_report_contract.py --freeze")
    freeze()
