from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from bqual.evaluation import (
    EvaluationConfig,
    EvaluationError,
    evaluate,
    load_required,
    parse_goals,
    render_report,
    report_to_json,
)

from conftest import corpus_path, corpus_source, count_transitions

CM1 = str(corpus_path("CM1.mch"))
CM2 = str(corpus_path("CM2.mch"))
CM4 = str(corpus_path("CM4.mch"))
GOALS = str(corpus_path("goals-cm1.txt"))
PLAN = str(corpus_path("cm5-plan.json"))


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "bqual.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def load_schema():
    with resources.files("bqual").joinpath("report.schema.json").open() as handle:
        return json.load(handle)


def test_evaluation_without_trials_builds_no_transition(tmp_path, monkeypatch):
    from bqual.explorer import explore
    from bqual.parser import parse_machine

    # A jump clock: CM1 plus set_time onto 03:00 and 03:01.  Without
    # requirements or trials every metric reads the exploration's arrays.
    source = corpus_source("CM6.mch").replace(
        "hh : 0..23 & mm : 0..59", "hh : 3..3 & mm : 0..1"
    )
    machine = tmp_path / "jump.mch"
    machine.write_text(source, encoding="utf-8")
    built = count_transitions(monkeypatch)
    config = EvaluationConfig(machine_path=str(machine), goals_path=GOALS, trials=0)
    report = evaluate(config)
    render_report(report, "json")
    assert report.summary["transitions"] == 1440 * 3
    assert report.value("accountability") == 1 - Fraction(2, 1440)
    assert report.value("reusability") == 1 - Fraction(4, 1440 * 3)
    assert built == []
    # The count sees the transitions once they are read.
    result = explore(parse_machine(source), meter_memory=False)
    assert len(result.transitions) == len(built)


@pytest.mark.parametrize("source", ["reference", "required"])
def test_functional_metrics_build_no_transition(tmp_path, monkeypatch, source):
    # The required relation goes from the file (or the reference's walk) to
    # the metric counts as arrays.
    dump = tmp_path / "cm1.jsonl"
    assert run_cli("explore", "--machine", CM1, "--out", str(dump)).returncode == 0
    built = count_transitions(monkeypatch)
    paths = {"reference_path": CM1} if source == "reference" else {"required_path": str(dump)}
    report = evaluate(EvaluationConfig(machine_path=CM2, trials=0, **paths))
    render_report(report, "json")
    assert report.value("tfcomp") == Fraction(697, 720)
    assert report.value("pfcomp") == Fraction(7062, 7200)
    assert report.value("tfappr") == Fraction(697, 720)
    assert report.value("availability") == 1
    assert built == []


def test_explore_out_builds_no_transition(tmp_path, monkeypatch, capsys):
    from bqual import cli

    built = count_transitions(monkeypatch)
    dump = tmp_path / "cm4.jsonl"
    assert cli.main(["explore", "--machine", CM4, "--out", str(dump)]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["transitions"] == 1465
    assert len(dump.read_text(encoding="utf-8").splitlines()) == 1465
    assert built == []


def _refuse(why):
    def refuse(*args, **kwargs):
        raise AssertionError(why)

    return refuse


class TestTruncatedEvaluation:
    """A cut LTS yields no metric that reads it; the counts stay."""

    LTS_METRICS = {
        "tfcomp", "pfcomp", "tfcorr", "pfcorr", "tfappr", "pfappr",
        "availability", "invariant_satisfiability", "accountability",
        "fault_tolerance", "recoverability", "functional_analysability",
        "fault_analysability", "modularity", "reusability", "goal_appropriateness",
    }

    def test_truncated_target(self):
        report = evaluate(
            EvaluationConfig(
                machine_path=CM1, reference_path=CM1, goals_path=GOALS,
                max_states=100, seed=7,
            )
        )
        obj = report_to_json(report)
        assert obj["summary"]["deadlock_states"] == 0
        assert obj["summary"]["violating_transitions"] == 0
        assert set(obj["not_computed_reasons"]) == self.LTS_METRICS
        for reason in obj["not_computed_reasons"].values():
            assert reason.startswith("exploration truncated")
            assert "--max-states/--max-transitions" in reason
        assert set(obj["exact"]) == {"learnability"}
        assert obj["metrics"]["capacity"] == 100 + 99
        assert obj["trial_exclusions"] == {}
        assert obj["per_operation_modularity"] == {}
        jsonschema.validate(obj, load_schema())

    def test_truncated_reference(self):
        # CM2 derives 1,417 transitions, reference CM1 1,440.
        report = evaluate(
            EvaluationConfig(
                machine_path=CM2, reference_path=CM1, max_transitions=1420,
                trials=0,
            )
        )
        assert not report.summary["truncated"]
        assert report.provenance["required_source"]["truncated"]
        reasons = report.reasons
        assert {name for name in reasons if "truncated" in reasons[name]} == {
            "tfcomp", "pfcomp", "tfcorr", "pfcorr", "tfappr", "pfappr", "availability"
        }
        assert reasons["tfcomp"].startswith("reference exploration truncated")
        assert report.value("invariant_satisfiability") is not None

    def test_no_relation_coded_when_cut(self, monkeypatch):
        why = "a relation was coded although a limit cut the LTS"
        monkeypatch.setattr("bqual.evaluation.code_relations", _refuse(why))
        self.test_truncated_target()
        self.test_truncated_reference()


class TestInputsReadFirst:
    """A bad input fails the run before the stages that cost."""

    def test_bad_goals_line_before_explore(self, tmp_path, monkeypatch):
        goals = tmp_path / "goals.txt"
        goals.write_text("G1: hour = 0\nno colon here\n", encoding="utf-8")
        monkeypatch.setattr("bqual.evaluation.explore", _refuse("explored before the goals"))
        config = EvaluationConfig(machine_path=CM1, goals_path=str(goals), trials=0)
        with pytest.raises(EvaluationError, match="goals line 2"):
            evaluate(config)

    def test_missing_plan_before_load_required(self, tmp_path, monkeypatch):
        why = "loaded the requirement before the plan"
        monkeypatch.setattr("bqual.evaluation.load_required", _refuse(why))
        config = EvaluationConfig(
            machine_path=CM2, reference_path=CM1, plan_path=str(tmp_path / "none.json")
        )
        with pytest.raises(FileNotFoundError):
            evaluate(config)

    def test_missing_goals_exit_one(self):
        result = run_cli(
            "evaluate", "--machine", CM2, "--reference", CM1, "--goals", "/nonexistent",
            "--trials", "0",
        )
        assert result.returncode == 1
        assert "/nonexistent" in result.stderr


class TestByteOrderMark:
    """Every text input may begin with a UTF-8 byte-order mark."""

    @staticmethod
    def with_bom(tmp_path, path):
        copy = tmp_path / f"bom-{Path(path).name}"
        copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        return str(copy)

    @staticmethod
    def comparable(config):
        obj = _strip_metering(report_to_json(evaluate(config)))
        provenance = obj["provenance"]
        for key in ("machine_path", "goals_path"):
            provenance[key] = None
        provenance["required_source"].pop("path", None)
        provenance["mutation"].pop("plan_path", None)
        return obj

    def test_machine_reference_goals_and_plan(self, tmp_path):
        plain = {
            "machine_path": CM1, "reference_path": CM1, "goals_path": GOALS,
            "plan_path": PLAN,
        }
        marked = {key: self.with_bom(tmp_path, path) for key, path in plain.items()}
        expected = self.comparable(EvaluationConfig(**plain))
        assert self.comparable(EvaluationConfig(**marked)) == expected
        assert expected["metrics"]["goal_appropriateness"] == 0.5
        assert expected["provenance"]["mutation"]["mode"] == "plan"

    def test_required_dump(self, tmp_path):
        dump = tmp_path / "cm4.jsonl"
        assert run_cli("explore", "--machine", CM4, "--out", str(dump)).returncode == 0
        marked = self.with_bom(tmp_path, dump)
        configs = [
            EvaluationConfig(machine_path=CM1, required_path=path, trials=2, seed=7)
            for path in (str(dump), marked)
        ]
        expected = self.comparable(configs[0])
        assert self.comparable(configs[1]) == expected
        # CM1 derives 1,440 of CM4's 1,465 transitions.
        assert expected["exact"]["tfcomp"] == "288/293"

    def test_explore_machine(self, tmp_path):
        plain = run_cli("explore", "--machine", CM1)
        marked = run_cli("explore", "--machine", self.with_bom(tmp_path, CM1))
        assert (marked.returncode, marked.stderr) == (0, "")
        outputs = [json.loads(run.stdout) for run in (plain, marked)]
        for obj in outputs:
            del obj["metering"]
        assert outputs[1] == outputs[0]


class TestLoadRequired:
    def test_reference_mode(self, cm2_machine):
        required = load_required(cm2_machine, reference_path=CM1)
        assert len(required) == 1440
        assert required.operations == {"inc_minute", "inc_hour", "next_day"}
        assert len(set(zip(required.pre.tolist(), required.post.tolist()))) == 1440

    def test_reference_variable_mismatch(self, cm2_machine, tmp_path):
        other = tmp_path / "other.mch"
        other.write_text(
            "MACHINE O VARIABLES a INVARIANT a : 0..1 INITIALISATION a := 0 "
            "OPERATIONS o = skip END",
            encoding="utf-8",
        )
        with pytest.raises(EvaluationError, match="hour"):
            load_required(cm2_machine, reference_path=str(other))

    def test_transitions_file_mode(self, cm1_machine, tmp_path):
        path = tmp_path / "req.jsonl"
        path.write_text(
            '{"pre": {"hour": 0, "minute": 0}, "op": "inc_minute", '
            '"post": {"hour": 0, "minute": 1}}\n',
            encoding="utf-8",
        )
        required = load_required(cm1_machine, required_path=str(path))
        assert len(required) == 1

    def test_empty_file_rejected(self, cm1_machine, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EvaluationError, match="no required transitions"):
            load_required(cm1_machine, required_path=str(path))

    def test_unknown_variable_named(self, cm1_machine, tmp_path):
        path = tmp_path / "req.jsonl"
        path.write_text(
            '{"pre": {"hour": 0, "second": 0}, "op": "a", '
            '"post": {"hour": 0, "second": 1}}\n',
            encoding="utf-8",
        )
        with pytest.raises(Exception, match="second"):
            load_required(cm1_machine, required_path=str(path))

    def test_exactly_one_source(self, cm1_machine):
        with pytest.raises(EvaluationError, match="exactly one"):
            load_required(cm1_machine)
        with pytest.raises(EvaluationError, match="exactly one"):
            load_required(cm1_machine, required_path="a", reference_path="b")


class TestParseGoals:
    def test_corpus_goals(self, cm1_machine):
        goals = parse_goals(corpus_source("goals-cm1.txt"), cm1_machine)
        assert [name for name, _ in goals] == ["G1", "G2"]

    def test_blank_lines_skipped(self, cm1_machine):
        goals = parse_goals("\nG1: hour = 0\n\n", cm1_machine)
        assert len(goals) == 1

    def test_bad_line(self, cm1_machine):
        with pytest.raises(EvaluationError, match="line 1"):
            parse_goals("no colon here", cm1_machine)

    def test_membership_goal_splits_on_first_colon(self, cm1_machine):
        goals = parse_goals("G3: hour : 0..5", cm1_machine)
        assert len(goals) == 1 and goals[0][0] == "G3"

    def test_duplicate_name(self, cm1_machine):
        with pytest.raises(EvaluationError, match="duplicate"):
            parse_goals("G: hour = 0\nG: hour = 1", cm1_machine)

    def test_empty_text(self, cm1_machine):
        assert parse_goals("", cm1_machine) == ()


class TestEvaluatePipeline:
    def test_cm2_against_reference(self):
        config = EvaluationConfig(
            machine_path=CM2, reference_path=CM1, trials=0, goals_path=GOALS
        )
        report = evaluate(config)
        assert report.value("tfcomp") == Fraction(1394, 1440)
        assert report.value("pfcomp") == Fraction(7062, 7200)
        assert report.value("tfcorr") == Fraction(1394, 1417)
        assert report.value("pfcorr") == Fraction(7062, 7085)
        assert report.value("tfappr") == Fraction(1394, 1440)
        assert report.value("pfappr") == Fraction(5645, 5760)
        assert report.value("availability") == 1
        assert report.value("goal_appropriateness") == Fraction(1, 2)
        assert report.value("capacity") == 1417 + 1417

    def test_cm1_against_itself(self):
        config = EvaluationConfig(machine_path=CM1, reference_path=CM1, trials=0)
        report = evaluate(config)
        for name in ("tfcomp", "pfcomp", "tfcorr", "pfcorr", "tfappr", "pfappr"):
            assert report.value(name) == 1
        assert report.value("invariant_satisfiability") == 1
        assert report.value("reusability") == Fraction(1437, 1440)
        assert report.value("capacity") == 2880

    def test_plan_mode(self):
        config = EvaluationConfig(machine_path=CM1, plan_path=PLAN, trials=0)
        report = evaluate(config)
        assert report.value("fault_tolerance") == 1 - Fraction(1, 1050)
        assert report.value("recoverability") == Fraction(1049, 1440)
        assert report.value("functional_analysability") == 1 - Fraction(1050, 1440)
        assert report.value("fault_analysability") == 1
        # reachability masking strands hours 6..11, so the scoped
        # operation keeps 17 of the 24 label-foreign transitions
        assert report.per_operation_modularity["inc_minute"] == Fraction(17, 24)
        assert report.per_operation_modularity["inc_hour"] == 1
        assert report.value("modularity") is not None

    def test_no_required_source_marks_functional(self):
        config = EvaluationConfig(machine_path=CM1, trials=0)
        report = evaluate(config)
        for name in ("tfcomp", "pfcomp", "tfcorr", "pfcorr", "tfappr", "pfappr", "availability"):
            assert report.value(name) is None
            assert name in report.reasons
        assert report.value("invariant_satisfiability") == 1

    def test_seeded_trials_recorded(self):
        config = EvaluationConfig(machine_path=CM1, trials=3, seed=5, n_extra=2, n_missing=2)
        report = evaluate(config)
        assert report.provenance["mutation"]["mode"] == "seeded"
        assert report.provenance["mutation"]["trials"] == 3
        assert report.value("fault_tolerance") is not None
        assert set(report.trial_exclusions) == {
            "fault_tolerance",
            "recoverability",
            "functional_analysability",
            "fault_analysability",
        }

    def test_full_label_space_caps_extras(self, tmp_path):
        # jump already derives every (pre-state, post-valuation) cell of its
        # label space, so its scoped plan can insert nothing.
        machine = tmp_path / "full.mch"
        machine.write_text(
            "MACHINE Full VARIABLES x INVARIANT x : 0..2 INITIALISATION x := 0 "
            "OPERATIONS jump = ANY v WHERE v : 0..2 THEN x := v END; "
            "inc = PRE x < 2 THEN x := x + 1 END END",
            encoding="utf-8",
        )
        report = evaluate(EvaluationConfig(machine_path=str(machine), trials=2, seed=3))
        assert report.value("modularity") is not None
        assert set(report.per_operation_modularity) == {"inc", "jump"}
        assert report.provenance["mutation"]["per_operation_counts"] == {
            "inc": {"n_extra": 1, "n_missing": 1},
            "jump": {"n_extra": 0, "n_missing": 1},
        }

    @pytest.mark.parametrize(
        "source, flag, counts, excluded, error",
        [
            (
                # up never fires: nothing derived to remove.
                "MACHINE Dead VARIABLES x INVARIANT x : 0..1 INITIALISATION x := 0 "
                "OPERATIONS up = PRE x = 1 THEN x := 0 END END",
                "--n-missing",
                {"n_extra": 1, "n_missing": 0},
                ["fault_tolerance", "functional_analysability", "recoverability"],
                "bqual: cannot remove 1 of 0 eligible transitions",
            ),
            (
                # jump derives all 9 cells of its draw space: none is free.
                "MACHINE Full VARIABLES x INVARIANT x : 0..2 INITIALISATION x := 0 "
                "OPERATIONS jump = ANY v WHERE v : 0..2 THEN x := v END END",
                "--n-extra",
                {"n_extra": 0, "n_missing": 1},
                [],
                "bqual: cannot draw 1 distinct extra transitions from a space "
                "of 9 with 9 already derived",
            ),
        ],
        ids=["dead", "full"],
    )
    def test_default_counts_capped_to_the_exploration(
        self, tmp_path, capsys, source, flag, counts, excluded, error
    ):
        from bqual import cli

        machine = tmp_path / "m.mch"
        machine.write_text(source, encoding="utf-8")
        assert cli.main(["evaluate", "--machine", str(machine), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        mutation = report["provenance"]["mutation"]
        assert {key: mutation[key] for key in counts} == counts
        reasons = report["not_computed_reasons"].items()
        assert sorted(n for n, why in reasons if why == "not computable in any trial") == excluded
        # A count given explicitly is drawn as given, or fails.
        assert cli.main(["evaluate", "--machine", str(machine), flag, "1"]) == 1
        assert capsys.readouterr().err.strip() == error

    def test_modularity_marked_with_sweep_error(self, tmp_path):
        # An unscoped plan (MutationError) and a machine with one operation
        # (NotComputable) leave modularity not computed, with the message.
        from bqual.explorer import explore
        from bqual.mutation import generate_plan
        from bqual.parser import parse_machine
        from oracle import plan_to_json

        cm1 = explore(parse_machine(corpus_source("CM1.mch")), meter_memory=False)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_to_json(cm1, generate_plan(cm1, 2, 2, 1))))
        one = tmp_path / "one.mch"
        one.write_text(
            "MACHINE One VARIABLES x INVARIANT x : 0..3 INITIALISATION x := 0 "
            "OPERATIONS up = PRE x < 3 THEN x := x + 1 END END",
            encoding="utf-8",
        )
        cases = [
            (EvaluationConfig(machine_path=CM1, plan_path=str(plan)),
             "explicit plan has no operation scope"),
            (EvaluationConfig(machine_path=str(one), trials=2),
             "no transitions outside operation 'up'"),
        ]
        for config, reason in cases:
            report = evaluate(config)
            assert report.value("modularity") is None
            assert report.reasons["modularity"] == reason
            assert report.per_operation_modularity == {}

    def test_one_alignment_per_element_kind(self, monkeypatch):
        import bqual.alignment

        original = bqual.alignment.similarity
        kinds = []

        def counted(left, right, *args, **kwargs):
            # evaluate aligns coded sides; pairs carry no label codes.
            kinds.append("StatePair" if left.n_labels is None else "Transition")
            return original(left, right, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bqual" and getattr(module, "similarity", None) is original:
                monkeypatch.setattr(module, "similarity", counted)
        config = EvaluationConfig(machine_path=CM2, reference_path=CM1, trials=0)
        report = evaluate(config)
        assert sorted(kinds) == ["StatePair", "Transition"]
        assert report.value("pfcomp") == Fraction(7062, 7200)
        assert report.value("pfcorr") == Fraction(7062, 7085)

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("BQUAL_SEED", "17")
        config = EvaluationConfig(machine_path=CM1, trials=1, n_extra=1, n_missing=1)
        report = evaluate(config)
        assert report.provenance["mutation"]["seed"] == 17
        monkeypatch.setenv("BQUAL_SEED", "nope")
        with pytest.raises(EvaluationError, match="BQUAL_SEED"):
            evaluate(config)

    def test_coded_relations_freed_before_fault_injection(self, monkeypatch):
        # Fault injection sets the run's peak memory; the coded relations,
        # and the alignment the functional metrics cache on them, must not
        # live on through it.
        import weakref

        import bqual.evaluation as evaluation

        code_relations, run_trials = evaluation.code_relations, evaluation.run_trials
        coded, entered = [], []

        def coding(*args, **kwargs):
            sides = code_relations(*args, **kwargs)
            coded.extend(weakref.ref(side) for side in sides)
            return sides

        def trials(*args, **kwargs):
            entered.append([ref() is None for ref in coded])
            return run_trials(*args, **kwargs)

        monkeypatch.setattr(evaluation, "code_relations", coding)
        monkeypatch.setattr(evaluation, "run_trials", trials)
        evaluate(EvaluationConfig(machine_path=CM2, reference_path=CM1, trials=1))
        assert entered == [[True, True]]


class TestOneFaultPath:
    """An explicit plan is scored as a one-plan run of the seeded loop."""

    SEEDED = dict(machine_path=CM1, trials=1, seed=3, n_extra=2, n_missing=2)

    @staticmethod
    def explicit(tmp_path, draw):
        """The report of ``--plan`` on the plan that ``draw`` draws on CM1."""
        from bqual.explorer import explore
        from bqual.parser import parse_machine
        from oracle import plan_to_json

        cm1 = explore(parse_machine(corpus_source("CM1.mch")), meter_memory=False)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_json(cm1, draw(cm1))), encoding="utf-8")
        return evaluate(EvaluationConfig(machine_path=CM1, plan_path=str(path)))

    def test_plan_scores_as_one_seeded_trial(self, tmp_path):
        from bqual.mutation import generate_plan

        explicit = self.explicit(tmp_path, lambda r: generate_plan(r, 2, 2, 3))
        seeded = evaluate(EvaluationConfig(**self.SEEDED))
        expected = {
            "fault_tolerance": Fraction(487, 489),
            "recoverability": Fraction(487, 1440),
            "functional_analysability": Fraction(317, 480),
            "fault_analysability": 1,
        }
        for report in (explicit, seeded):
            assert {name: report.value(name) for name in expected} == expected
        assert explicit.trial_exclusions == {}

    def test_scoped_plan_scores_as_the_sweep(self, tmp_path):
        from bqual.mutation import _op_seed, capped_counts, generate_plan

        def draw(r):
            counts = capped_counts(r, 2, 2, "inc_minute")
            return generate_plan(r, *counts, _op_seed(3, "inc_minute"), "inc_minute")

        explicit = self.explicit(tmp_path, draw)
        seeded = evaluate(EvaluationConfig(**self.SEEDED))
        value = seeded.per_operation_modularity["inc_minute"]
        assert value < 1
        assert explicit.per_operation_modularity["inc_minute"] == value

    def test_plan_applied_once(self, monkeypatch):
        import bqual.evaluation
        import bqual.mutation

        original = bqual.mutation.apply_plan
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (bqual.mutation, bqual.evaluation):
            monkeypatch.setattr(module, "apply_plan", counted)
        evaluate(EvaluationConfig(machine_path=CM1, plan_path=PLAN))
        assert len(calls) == 1


@pytest.fixture(scope="module")
def report():
    config = EvaluationConfig(
        machine_path=CM2, reference_path=CM1, trials=1, seed=0,
        n_extra=1, n_missing=1, goals_path=GOALS,
    )
    return evaluate(config)


class TestRendering:
    def test_json_has_three_digit_decimals_and_exact(self, report):
        obj = report_to_json(report)
        assert obj["metrics"]["tfcomp"] == 0.968
        assert obj["exact"]["tfcomp"] == "697/720"
        assert obj["metrics"]["invariant_satisfability"] == obj["metrics"][
            "invariant_satisfiability"
        ]

    def test_not_computed_rendering(self):
        config = EvaluationConfig(machine_path=CM1, trials=0)
        obj = report_to_json(evaluate(config))
        assert obj["metrics"]["goal_appropriateness"] == "not-computed"
        assert "goal_appropriateness" in obj["not_computed_reasons"]
        assert "goal_appropriateness" not in obj["exact"]

    def test_metering_emitted(self, report):
        obj = report_to_json(report)
        assert obj["metrics"]["cpu_seconds"] >= 0
        assert obj["metrics"]["peak_memory_bytes"] > 0

    def test_schema_valid(self, report):
        jsonschema.validate(report_to_json(report), load_schema())

    def test_schema_valid_without_required(self):
        config = EvaluationConfig(machine_path=CM1, trials=0)
        jsonschema.validate(report_to_json(evaluate(config)), load_schema())

    def test_table_contains_groups(self, report):
        text = render_report(report, "table")
        for label in ("TFComp", "Inv. Sat.", "Fau. Tol.", "Peak Mem.", "GAppr"):
            assert label in text

    def test_table_rows_follow_the_json_order(self, report):
        # Five rows of four equally wide cells, each a label left-aligned in
        # the widest label's width, then a space and the value; the labels
        # read row by row in the JSON report's metric order.
        labels = {
            "tfcomp": "TFComp", "pfcomp": "PFComp", "tfcorr": "TFCorr",
            "pfcorr": "PFCorr", "tfappr": "TFAppr", "pfappr": "PFAppr",
            "invariant_satisfiability": "Inv. Sat.", "availability": "Availability",
            "accountability": "Accountability", "fault_tolerance": "Fau. Tol.",
            "recoverability": "Recoverability", "functional_analysability": "Fun. Ana.",
            "fault_analysability": "Fau. Ana.", "modularity": "Modularity",
            "reusability": "Reusability", "cpu_seconds": "CPU Time",
            "peak_memory_bytes": "Peak Mem.", "capacity": "Capacity",
            "goal_appropriateness": "GAppr", "learnability": "Learnability",
        }
        names = [n for n in report_to_json(report)["metrics"] if n != "invariant_satisfability"]
        assert sorted(names) == sorted(labels)
        rows = render_report(report, "table").split("\n\n")[0].splitlines()[1:]
        assert len(rows) == 5
        label_width = max(map(len, labels.values()))
        cell_width = (len(rows[0]) - 2 - 3 * 3) // 4
        read = []
        for row in rows:
            assert len(row) == len(rows[0]) and row.startswith("  ")
            cells = [row[2 + k * (cell_width + 3) :][:cell_width] for k in range(4)]
            assert "   ".join(cells) == row[2:]
            for cell in cells:
                assert cell[label_width] == " " and cell[label_width + 1 :].strip()
                read.append(cell[:label_width].rstrip())
        assert read == [labels[name] for name in names]

    def test_unknown_format(self, report):
        with pytest.raises(EvaluationError):
            render_report(report, "yaml")


def _strip_metering(obj):
    del obj["metrics"]["cpu_seconds"]
    del obj["metrics"]["peak_memory_bytes"]
    return obj


class TestCli:
    def test_import_leaves_csgraph_unloaded(self):
        # Only fault injection needs scipy.sparse.csgraph, and it imports it
        # at first use, so that no start-up of the CLI pays for it.
        probe = "import sys, bqual.cli; print('scipy.sparse.csgraph' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_explore_only_paths_build_no_graph(self, tmp_path):
        # Neither `evaluate --trials 0` without requirements nor an explore
        # applies a plan, so neither imports csgraph or builds the cached
        # successor graph.
        probe = (
            "import sys, bqual.cli, bqual.evaluation\n"
            "explore, results = bqual.cli.explore, []\n"
            "def recording(*args, **kwargs):\n"
            "    results.append(explore(*args, **kwargs))\n"
            "    return results[-1]\n"
            "bqual.cli.explore = bqual.evaluation.explore = recording\n"
            "codes = [\n"
            "    bqual.cli.main(['evaluate', '--machine', sys.argv[1], '--trials', '0',"
            " '--out', sys.argv[3]]),\n"
            "    bqual.cli.main(['explore', '--machine', sys.argv[2], '--out', sys.argv[4]]),\n"
            "]\n"
            "print(codes, len(results), 'scipy.sparse.csgraph' in sys.modules,"
            " any('graph' in vars(result) for result in results))\n"
        )
        result = subprocess.run(
            [
                sys.executable, "-c", probe, str(corpus_path("CM6.mch")), CM1,
                str(tmp_path / "report.json"), str(tmp_path / "cm1.jsonl"),
            ],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[0, 0] 2 False False"

    def test_import_leaves_optimize_unloaded(self, tmp_path):
        # Only an alignment needs scipy.optimize, and it imports it at first
        # use, so neither a start-up of the CLI nor an explore pays for it.
        probe = (
            "import sys, bqual.cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "code = bqual.cli.main(['explore', '--machine', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, CM1, str(tmp_path / "cm1.jsonl")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "False"
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_evaluate_exit_zero_and_schema(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "evaluate", "--machine", CM2, "--reference", CM1,
            "--goals", GOALS, "--trials", "2", "--seed", "3",
            "--out", str(out), "--format", "table",
        )
        assert result.returncode == 0, result.stderr
        assert "TFComp" in result.stdout
        obj = json.loads(out.read_text(encoding="utf-8"))
        jsonschema.validate(obj, load_schema())
        assert obj["metrics"]["tfcomp"] == 0.968

    def test_rerun_identical_except_metering(self, tmp_path):
        args = (
            "evaluate", "--machine", CM2, "--reference", CM1,
            "--trials", "2", "--seed", "9", "--format", "json",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        a = _strip_metering(json.loads(first.stdout))
        b = _strip_metering(json.loads(second.stdout))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_plan_mode_cli(self):
        result = run_cli(
            "evaluate", "--machine", CM1, "--plan", PLAN, "--format", "json"
        )
        assert result.returncode == 0, result.stderr
        obj = json.loads(result.stdout)
        assert obj["exact"]["fault_tolerance"] == "1049/1050"
        assert obj["exact"]["recoverability"] == "1049/1440"
        assert obj["metrics"]["functional_analysability"] == 0.271
        assert obj["metrics"]["fault_analysability"] == 1.0
        assert obj["provenance"]["mutation"]["mode"] == "plan"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5", "plan must be a JSON object, not int"),
            ('"extra missing"', "plan must be a JSON object, not str"),
            ('{"extra": [], "missing": [], "seed": true}', "plan seed must be an integer"),
        ],
        ids=["number", "string", "boolean-seed"],
    )
    def test_malformed_plan_exit_one(self, tmp_path, text, message):
        plan = tmp_path / "plan.json"
        plan.write_text(text, encoding="utf-8")
        result = run_cli("evaluate", "--machine", CM1, "--plan", str(plan))
        assert result.returncode == 1
        assert result.stderr == f"bqual: {message}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "plan, message",
        [
            (
                {"extra": [{"pre": {"hour": 0, "minute": 0}, "op": "bogus",
                            "post": {"hour": 0, "minute": 2}}], "missing": []},
                "transition [(0,0),bogus,(0,2)] names an undeclared operation 'bogus'",
            ),
            (
                {"extra": [], "missing": [], "label_scope": "tick"},
                "plan is scoped to an unknown operation 'tick'",
            ),
        ],
        ids=["extra", "scope"],
    )
    def test_undeclared_operation_in_plan_exit_one(self, tmp_path, plan, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        result = run_cli("evaluate", "--machine", CM1, "--plan", str(path))
        assert result.returncode == 1
        assert result.stderr == f"bqual: {message}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "plan, message",
        [
            (
                {"extra": [5], "missing": [], "seed": 0},
                "extra item 1: transition must be a JSON object, not int",
            ),
            (
                {"extra": [{"pre": {"hour": 0, "minute": 0}, "op": "inc_minute",
                            "post": {"hour": True, "minute": 0}}], "missing": []},
                "plan-only state (TRUE,0): range membership needs integers",
            ),
        ],
        ids=["item", "plan-only-state"],
    )
    def test_plan_error_names_where_exit_one(self, tmp_path, plan, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        result = run_cli("evaluate", "--machine", CM1, "--plan", str(path))
        assert result.returncode == 1
        assert result.stderr == f"bqual: {message}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("explore", "--machine"),
            ("evaluate", "--plan"),
            ("evaluate", "--goals"),
            ("evaluate", "--required"),
        ],
        ids=["machine", "plan", "goals", "required"],
    )
    def test_non_utf8_input_exit_one(self, tmp_path, command, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfeMACHINE M\n")
        paths = {"--machine": CM1, flag: str(bad)}
        result = run_cli(command, *(item for pair in paths.items() for item in pair))
        assert result.returncode == 1
        assert result.stderr == (
            "bqual: an input file is not UTF-8 text ('utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte)\n"
        )
        assert result.stdout == ""

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.mch"
        bad.write_text("MACHINE Broken VARIABLES", encoding="utf-8")
        result = run_cli("evaluate", "--machine", str(bad))
        assert result.returncode == 2
        assert "parse error" in result.stderr

    @pytest.mark.parametrize("command", ["explore", "evaluate"])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, command):
        # 200 levels of (x = 1 or (... & x >= 0)) open 400 parentheses.
        def deep(name):
            pred = f"{name} = 1"
            for _ in range(200):
                pred = f"({name} = 1 or ({pred} & {name} >= 0))"
            return pred

        machine = tmp_path / "deep.mch"
        machine.write_text(
            "MACHINE Deep\nVARIABLES hour\nINVARIANT hour : 0..1\n"
            f"INITIALISATION hour := 0\nOPERATIONS o = PRE {deep('hour')} THEN hour := 1 END\n"
            "END\n",
            encoding="utf-8",
        )
        goals = tmp_path / "goals.txt"
        goals.write_text(f"deep: {deep('minute')}\n", encoding="utf-8")
        if command == "explore":
            result, line = run_cli("explore", "--machine", str(machine)), 5
        else:  # a goal is parsed on its own, so its error names line 1
            result, line = run_cli("evaluate", "--machine", CM1, "--goals", str(goals)), 1
        assert result.returncode == 2
        assert re.fullmatch(
            rf"bqual: parse error: {line}:\d+: nested more than 256 levels deep \(found '\w+'\)\n",
            result.stderr,
        )
        assert result.stdout == ""

    def test_strict_truncation_exit_code(self):
        result = run_cli(
            "evaluate", "--machine", CM1, "--max-states", "10",
            "--trials", "0", "--strict",
        )
        assert result.returncode == 3
        assert "truncated" in result.stderr

    def test_strict_truncated_reference_exit_code(self):
        # CM2 derives 1,417 transitions, reference CM1 1,440.
        result = run_cli(
            "evaluate", "--machine", CM2, "--reference", CM1,
            "--max-transitions", "1420", "--trials", "0", "--strict",
            "--format", "json",
        )
        assert result.returncode == 3
        assert result.stderr == "bqual: reference exploration was truncated by a limit\n"
        obj = json.loads(result.stdout)
        assert obj["summary"]["truncated"] is False
        assert obj["provenance"]["required_source"]["truncated"] is True

    def test_strict_not_computable_exit_code(self):
        result = run_cli("evaluate", "--machine", CM1, "--trials", "0", "--strict")
        assert result.returncode == 4
        assert "tfcomp" in result.stderr

    def test_non_strict_still_writes_partial_report(self, tmp_path):
        out = tmp_path / "partial.json"
        result = run_cli(
            "evaluate", "--machine", CM1, "--trials", "0", "--out", str(out)
        )
        assert result.returncode == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert obj["metrics"]["tfcomp"] == "not-computed"

    def test_explore_roundtrip_through_required(self, tmp_path):
        dump = tmp_path / "cm1.jsonl"
        result = run_cli("explore", "--machine", CM1, "--out", str(dump))
        assert result.returncode == 0, result.stderr
        summary = json.loads(result.stdout)
        assert summary["summary"]["transitions"] == 1440
        evaluated = run_cli(
            "evaluate", "--machine", CM2, "--required", str(dump),
            "--trials", "0", "--format", "json",
        )
        assert evaluated.returncode == 0, evaluated.stderr
        obj = json.loads(evaluated.stdout)
        assert obj["exact"]["tfcomp"] == "697/720"

    @pytest.mark.parametrize("limits", [(), ("--max-states", "10")])
    def test_explore_summary_matches_report(self, limits):
        explored = run_cli("explore", "--machine", CM4, *limits)
        evaluated = run_cli(
            "evaluate", "--machine", CM4, *limits, "--trials", "0", "--format", "json"
        )
        assert explored.returncode == evaluated.returncode == 0, explored.stderr
        assert (
            json.loads(explored.stdout)["summary"]
            == json.loads(evaluated.stdout)["summary"]
        )

    def test_explore_stdout_lists_transitions(self):
        result = run_cli("explore", "--machine", CM4)
        assert result.returncode == 0, result.stderr
        transitions = json.loads(result.stdout)["transitions"]
        assert len(transitions) == 1465
        assert sum(t["violates"] for t in transitions) == 25

    def test_explore_out_omits_transitions(self, tmp_path):
        dump = tmp_path / "cm4.jsonl"
        result = run_cli("explore", "--machine", CM4, "--out", str(dump))
        assert result.returncode == 0, result.stderr
        assert "transitions" not in json.loads(result.stdout)
        lines = dump.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1465
        # Both ends write the canonical order: the printed transitions, with
        # their violates flags dropped, are the dump's lines in line order.
        printed = run_cli("explore", "--machine", CM4)
        assert printed.returncode == 0, printed.stderr
        listed = [
            {key: t[key] for key in ("pre", "op", "post")}
            for t in json.loads(printed.stdout)["transitions"]
        ]
        assert listed == [json.loads(line) for line in lines]

    def test_missing_file_exit_one(self):
        result = run_cli("evaluate", "--machine", "/nonexistent.mch")
        assert result.returncode == 1

    @pytest.mark.parametrize("flag", ["--n-extra", "--n-missing", "--trials"])
    def test_negative_mutation_count_exit_one(self, flag):
        result = run_cli("evaluate", "--machine", CM1, "--trials", "1", flag, "-3")
        assert result.returncode == 1
        name = flag[2:].replace("-", "_")
        assert result.stderr == f"bqual: {name} must not be negative, got -3\n"

    # The counts are checked whatever the mutation mode, also where they are
    # not used; the test above covers seeded mode.
    @pytest.mark.parametrize(
        "mode", [("--trials", "0"), ("--plan", PLAN)], ids=["disabled", "plan"]
    )
    @pytest.mark.parametrize("flag", ["--n-extra", "--n-missing"])
    def test_negative_unused_mutation_count_exit_one(self, mode, flag):
        result = run_cli("evaluate", "--machine", CM1, *mode, flag, "-3")
        assert result.returncode == 1
        name = flag[2:].replace("-", "_")
        assert result.stderr == f"bqual: {name} must not be negative, got -3\n"
        assert result.stdout == ""

    def test_limit_below_initial_states_keeps_them(self, tmp_path):
        # A limit never drops an initial state: CM1's one initial state is
        # kept under --max-states 0, and the run reads as truncated.
        out = tmp_path / "cm1.jsonl"
        result = run_cli("explore", "--machine", CM1, "--max-states", "0", "--out", str(out))
        assert result.returncode == 0, result.stderr
        header = json.loads(result.stdout)
        del header["metering"]
        assert header == {
            "machine": "CM1",
            "variables": ["hour", "minute"],
            "summary": {
                "initial_states": 1, "states": 1, "transitions": 0,
                "ok_transitions": 0, "violating_transitions": 0,
                "deadlock_states": 0, "truncated": True,
            },
        }
        assert out.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("command", ["explore", "evaluate"])
    @pytest.mark.parametrize("flag", ["--max-states", "--max-transitions"])
    def test_negative_limit_exit_one(self, command, flag):
        result = run_cli(command, "--machine", CM1, flag, "-1")
        assert result.returncode == 1
        name = flag[2:].replace("-", "_")
        assert result.stderr == f"bqual: {name} must not be negative, got -1\n"
        assert result.stdout == ""

    def test_negative_similarity_threshold_exit_one(self):
        # The guard is squared, so a negative one would pass for its square.
        result = run_cli(
            "evaluate", "--machine", CM2, "--reference", CM1, "--trials", "1",
            "--similarity-threshold", "-5000",
        )
        assert result.returncode == 1
        assert result.stderr == "bqual: similarity_threshold must not be negative, got -5000\n"
        assert result.stdout == ""

    # The report's schema bounds these four options below by 1.
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--similarity-threshold", "0", "must be at least 1, got 0"),
            ("--word-limit", "0", "must be at least 1, got 0"),
            ("--word-limit", "-3", "must not be negative, got -3"),
            ("--max-states", "0", "must be at least 1, got 0"),
            ("--max-transitions", "0", "must be at least 1, got 0"),
        ],
        ids=["similarity-threshold-0", "word-limit-0", "word-limit-negative",
             "max-states-0", "max-transitions-0"],
    )
    def test_value_below_schema_minimum_exit_one(self, tmp_path, flag, value, message):
        out = tmp_path / "r.json"
        result = run_cli(
            "evaluate", "--machine", CM2, "--reference", CM1, "--trials", "1",
            flag, value, "--out", str(out),
        )
        assert result.returncode == 1
        name = flag[2:].replace("-", "_")
        assert result.stderr == f"bqual: {name} {message}\n"
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag", ["--similarity-threshold", "--word-limit", "--max-states", "--max-transitions"]
    )
    def test_schema_minimum_is_accepted(self, tmp_path, flag):
        out = tmp_path / "r.json"
        result = run_cli(
            "evaluate", "--machine", CM2, "--reference", CM1, "--trials", "1",
            flag, "1", "--out", str(out), "--format", "json",
        )
        assert result.returncode == 0, result.stderr
        jsonschema.validate(json.loads(out.read_text(encoding="utf-8")), load_schema())

    def test_evaluate_namespace_has_every_config_field(self):
        from bqual.cli import build_parser

        args = build_parser().parse_args(["evaluate", "--machine", "M"])
        assert {field.name for field in dataclasses.fields(EvaluationConfig)} <= set(vars(args))

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--machine", "M"], EvaluationConfig(machine_path="M")),
            (
                ["--machine", "M", "--required", "R", "--goals", "G", "--word-limit", "7",
                 "--max-states", "11", "--max-transitions", "13", "--trials", "3",
                 "--n-extra", "2", "--n-missing", "5", "--seed", "17", "--plan", "P",
                 "--similarity-threshold", "19", "--out", "O", "--format", "json",
                 "--strict"],
                EvaluationConfig(
                    machine_path="M", required_path="R", goals_path="G", word_limit=7,
                    max_states=11, max_transitions=13, trials=3, n_extra=2, n_missing=5,
                    seed=17, plan_path="P", size_guard=19,
                ),
            ),
            (
                ["--machine", "M", "--reference", "F", "--trials", "0"],
                EvaluationConfig(machine_path="M", reference_path="F", trials=0),
            ),
        ],
        ids=["defaults", "every-flag", "reference"],
    )
    def test_evaluate_flags_build_config(self, monkeypatch, argv, expected):
        from bqual import cli

        built = []

        def stop(config):
            built.append(config)
            raise EvaluationError("stopped")

        monkeypatch.setattr(cli, "evaluate", stop)
        assert cli.main(["evaluate", *argv]) == 1
        assert built == [expected]

    def test_evaluate_help_keeps_metavars(self):
        result = run_cli("evaluate", "--help")
        assert result.returncode == 0
        for flag in ("machine", "required", "reference", "goals", "plan",
                     "similarity-threshold"):
            metavar = flag.upper().replace("-", "_")
            assert f"--{flag} {metavar}" in result.stdout

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1", "line 2: transition must be a JSON object, not int"),
            (
                '{"pre": {"hour": 0, "minute": 0}, "op": "inc_minute", "post": 5}',
                "line 2: transition 'post' must be a JSON object, not int",
            ),
        ],
        ids=["line-not-object", "post-not-object"],
    )
    def test_required_line_not_an_object_exit_one(self, tmp_path, line, message):
        path = tmp_path / "req.jsonl"
        path.write_text(
            '{"pre": {"hour": 0, "minute": 0}, "op": "inc_minute", '
            '"post": {"hour": 0, "minute": 1}}\n' + line + "\n",
            encoding="utf-8",
        )
        result = run_cli(
            "evaluate", "--machine", CM1, "--required", str(path), "--trials", "0"
        )
        assert result.returncode == 1
        assert result.stderr == f"bqual: {message}\n"

    def test_truncation_without_strict_exits_zero(self):
        result = run_cli(
            "evaluate", "--machine", CM1, "--max-states", "10",
            "--trials", "0", "--format", "json",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["summary"]["truncated"] is True

    def test_version_flag(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert "bqual" in result.stdout
