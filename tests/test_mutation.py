from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bqual

from bqual.explorer import infer_domains
from bqual.lts import StructureError, Transition, boolval, intval
from bqual.mutation import (
    FAULT_METRICS,
    MutationError,
    apply_plan,
    generate_plan,
    load_plan,
    modularity_sweep,
    plan_from_json,
    run_trials,
    seeded,
)

from conftest import (
    changed_sets,
    corpus_path,
    count_transitions,
    erased_sizes,
    independent_apply,
    object_plan,
    plan_fields,
    plan_transitions,
    transition_to_json,
)
from oracle import operation_names, plan_to_json

ORDER = ("hour", "minute")


def clock_state(h, m):
    return (intval(h), intval(m))


def clock_transition(pre, label, post):
    return Transition(clock_state(*pre), label, clock_state(*post))


@pytest.fixture(scope="module")
def cm5_plan(cm1_machine, cm1_result):
    return load_plan(corpus_path("cm5-plan.json"), cm1_result, cm1_machine.element_sets)


@pytest.fixture(scope="module")
def cm1_changed(cm1_result, cm5_plan, cm1_machine):
    return apply_plan(cm1_result, cm5_plan)


def clock_json(pre, label, post) -> dict:
    return transition_to_json(clock_transition(pre, label, post), ORDER)


class TestPlanFile:
    def test_shipped_plan(self, cm1_result, cm5_plan):
        extra, missing = plan_transitions(cm1_result, cm5_plan)
        assert extra == frozenset({clock_transition((3, 0), "inc_minute", (12, 0))})
        assert missing == frozenset({clock_transition((5, 29), "inc_minute", (5, 30))})
        assert cm5_plan.label_scope == "inc_minute"

    def test_round_trip(self, cm1_result, cm5_plan):
        obj = plan_to_json(cm1_result, cm5_plan)
        assert plan_to_json(cm1_result, plan_from_json(obj, cm1_result)) == obj

    def test_bad_seed_rejected(self, cm1_result):
        with pytest.raises(MutationError, match="seed"):
            plan_from_json({"extra": [], "missing": [], "seed": "nope"}, cm1_result)

    def test_boolean_seed_rejected(self, cm1_result):
        with pytest.raises(MutationError, match="seed"):
            plan_from_json({"extra": [], "missing": [], "seed": True}, cm1_result)

    @pytest.mark.parametrize("obj", [5, "extra missing", ["extra", "missing"], None])
    def test_non_object_plan_rejected(self, obj, cm1_result):
        with pytest.raises(MutationError, match="plan must be a JSON object"):
            plan_from_json(obj, cm1_result)

    def test_a_transition_listed_twice_counts_once(self, cm1_result):
        once = clock_json((3, 0), "inc_minute", (12, 0))
        permuted = dict(once, post={"minute": 0, "hour": 12})
        plan = plan_from_json({"extra": [once, permuted], "missing": []}, cm1_result)
        assert len(plan.pre) == 1
        assert plan_to_json(cm1_result, plan)["extra"] == [once]

    @pytest.mark.parametrize(
        "edge, message",
        [
            (
                ((0, 0), "inc_minute", (0, 1)),
                r"^extra transition \[\(0,0\),inc_minute,\(0,1\)\] is already derived$",
            ),
            (
                ((0, 0), "inc_minute", (0, 2)),
                r"^missing transition \[\(0,0\),inc_minute,\(0,2\)\] is not derived$",
            ),
        ],
        ids=["derived", "underived"],
    )
    def test_a_transition_in_both_lists_is_rejected(self, cm1_result, edge, message):
        obj = {"extra": [clock_json(*edge)], "missing": [clock_json(*edge)]}
        with pytest.raises(MutationError, match=message):
            plan_from_json(obj, cm1_result)

    def test_true_is_not_one(self, cm1_result):
        derived = clock_json((0, 0), "inc_minute", (0, 1))
        plan = plan_from_json({"extra": [], "missing": [derived]}, cm1_result)
        assert len(plan.missing) == 1
        boolean = dict(derived, post={"hour": 0, "minute": True})
        message = r"^missing transition \[\(0,0\),inc_minute,\(0,TRUE\)\] is not derived$"
        with pytest.raises(MutationError, match=message):
            plan_from_json({"extra": [], "missing": [boolean]}, cm1_result)
        plan = plan_from_json({"extra": [boolean], "missing": []}, cm1_result)
        assert plan.fresh == ((intval(0), boolval(True)),)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"extra": [5], "missing": []}, "extra item 1: transition must be a JSON object"),
            (
                {"extra": [], "missing": [{"pre": {"hour": 0}, "op": "inc_hour", "post": {}}]},
                "missing item 1: state is missing variable 'minute'",
            ),
        ],
        ids=["extra", "missing"],
    )
    def test_decode_errors_name_the_list_and_item(self, cm1_result, obj, message):
        with pytest.raises(StructureError, match=f"^{message}"):
            plan_from_json(obj, cm1_result)


class TestValidatePlan:
    def test_extra_already_derived(self, cm1_result):
        extra = [clock_transition((0, 0), "inc_minute", (0, 1))]
        with pytest.raises(MutationError, match="already derived"):
            object_plan(cm1_result, extra=extra)

    def test_missing_not_derived(self, cm1_result):
        missing = [clock_transition((0, 0), "inc_minute", (9, 9))]
        with pytest.raises(MutationError, match="not derived"):
            object_plan(cm1_result, missing=missing)

    def test_scope_mismatch(self, cm1_result):
        extra = [clock_transition((0, 0), "inc_hour", (9, 9))]
        with pytest.raises(MutationError, match="scoped"):
            object_plan(cm1_result, extra=extra, label_scope="inc_minute")

    def test_undeclared_operation(self, cm1_result):
        extra = [clock_transition((0, 0), "bogus", (9, 9))]
        with pytest.raises(
            MutationError,
            match=r"^transition \[\(0,0\),bogus,\(9,9\)\] names an undeclared operation 'bogus'$",
        ):
            object_plan(cm1_result, extra=extra)

    def test_unknown_scope(self, cm1_result):
        with pytest.raises(MutationError, match="unknown operation 'tick'"):
            object_plan(cm1_result, label_scope="tick")

    def test_ids(self, cm1_result, cm5_plan):
        removed = clock_transition((5, 29), "inc_minute", (5, 30))
        assert cm1_result.edge_objects[cm5_plan.missing[0]] == removed
        inserted = clock_transition((3, 0), "inc_minute", (12, 0))
        pre, label, post = cm5_plan.pre[0], cm5_plan.label[0], cm5_plan.post[0]
        assert cm1_result.rows[pre] == inserted.pre
        assert cm1_result.labels[label] == inserted.label
        assert cm1_result.rows[post] == inserted.post
        assert cm5_plan.fresh == ()


class TestGeneratePlan:
    def test_deterministic(self, cm1_result):
        a = generate_plan(cm1_result, 4, 4, seed=11)
        b = generate_plan(cm1_result, 4, 4, seed=11)
        assert plan_fields(a) == plan_fields(b)
        c = generate_plan(cm1_result, 4, 4, seed=12)
        assert plan_fields(c) != plan_fields(a)

    def test_empty_counts(self, cm1_result):
        plan = generate_plan(cm1_result, 0, 0, 5)
        assert plan_transitions(cm1_result, plan) == (frozenset(), frozenset())

    def test_draws_respect_structure(self, cm1_result, cm1_machine):
        domains = infer_domains(cm1_machine)
        extra, missing = plan_transitions(cm1_result, generate_plan(cm1_result, 10, 10, seed=3))
        assert len(extra) == 10 and len(missing) == 10
        assert not extra & cm1_result.transitions
        assert missing <= cm1_result.transitions
        for t in extra:
            assert t.pre in cm1_result.states
            assert t.label in operation_names(cm1_machine)
            for name, value in zip(ORDER, t.post):
                assert value in domains[name].values()

    def test_label_scope(self, cm1_result):
        plan = generate_plan(cm1_result, 3, 3, seed=4, label_scope="inc_hour")
        extra, missing = plan_transitions(cm1_result, plan)
        assert all(t.label == "inc_hour" for t in extra | missing)

    def test_unsatisfiable_missing_count(self, cm1_result):
        with pytest.raises(MutationError, match="cannot remove"):
            generate_plan(cm1_result, 0, 2, seed=1, label_scope="next_day")

    def test_unknown_scope_rejected(self, cm1_result):
        with pytest.raises(MutationError, match="unknown operation 'tick'"):
            generate_plan(cm1_result, 1, 0, seed=0, label_scope="tick")

    def test_exhausted_extra_space(self):
        from bqual.explorer import explore
        from bqual.parser import parse_machine

        machine = parse_machine(
            "MACHINE Tiny VARIABLES x INVARIANT x : 0..0 INITIALISATION x := 0 "
            "OPERATIONS loop = x := 0 END"
        )
        result = explore(machine, meter_memory=False)
        with pytest.raises(MutationError, match="cannot draw"):
            generate_plan(result, 1, 0, seed=0)

    def test_draw_cap_trips_at_the_same_draw(self, monkeypatch):
        from bqual import mutation
        from bqual.explorer import explore
        from bqual.parser import parse_machine

        # 898 of the 900 (x, set, x') slots are derived; under seed 0 the
        # second free one is found by draw 1056 (frozen).
        machine = parse_machine(
            "MACHINE Full VARIABLES x INVARIANT x : 0..29 INITIALISATION x := 0 "
            "OPERATIONS set = ANY v WHERE v : 0..29 & (x > 0 or v > 1) "
            "THEN x := v END END"
        )
        result = explore(machine, meter_memory=False)
        monkeypatch.setattr(mutation, "_MAX_DRAW_ATTEMPTS", 1056)
        assert len(generate_plan(result, 2, 0, seed=0).pre) == 2
        monkeypatch.setattr(mutation, "_MAX_DRAW_ATTEMPTS", 1055)
        with pytest.raises(MutationError, match="too many rejected draws"):
            generate_plan(result, 2, 0, seed=0)


    @pytest.mark.parametrize(
        "labels, occupied", [(["up"], 3), (["down"], 3), (["up", "down"], 6)]
    )
    def test_extra_space_counts_posts_inside_the_domains(self, labels, occupied):
        from bqual.explorer import explore
        from bqual.mutation import _extra_space
        from bqual.parser import parse_machine

        # up is unguarded, so 3 -> 4 leaves x : 0..3 and 4 is a derived state.
        machine = parse_machine(
            "MACHINE Up VARIABLES x INVARIANT x : 0..3 INITIALISATION x := 0 "
            "OPERATIONS up = x := x + 1; down = PRE x > 0 THEN x := x - 1 END END"
        )
        result = explore(machine, meter_memory=False)
        domains = infer_domains(machine)
        scanned = sum(
            1
            for t in result.transitions
            if t.label in labels
            and all(v in domains["x"].values() for v in t.post)
        )
        assert scanned == occupied
        space = len(result.states) * len(labels) * 4
        codes = [result.labels.index(name) for name in labels]
        assert _extra_space(result, codes) == (space, occupied)


# Draws two plans on a machine with enumerated, boolean and integer
# variables and prints them; set iteration order varies with the hash seed.
_PLAN_SCRIPT = """
import json
from bqual.explorer import explore
from bqual.mutation import generate_plan
from bqual.parser import parse_machine
from oracle import plan_to_json

machine = parse_machine(
    "MACHINE Lamp SETS COLOR = {red, amber, green} VARIABLES light, on, n "
    "INVARIANT light : COLOR & on : BOOL & n : 0..2 "
    "INITIALISATION light := red; on := FALSE; n := 0 OPERATIONS "
    "paint = ANY c WHERE c : COLOR THEN light := c END; "
    "switch_on = SELECT on = FALSE THEN on := TRUE END; "
    "switch_off = SELECT on = TRUE THEN on := FALSE END; "
    "bump = PRE n < 2 THEN n := n + 1 END END"
)
result = explore(machine, meter_memory=False)
plans = [
    generate_plan(result, 5, 5, seed=11),
    generate_plan(result, 3, 3, seed=11, label_scope="paint"),
]
print(json.dumps([plan_to_json(result, plan) for plan in plans]))
"""


def _outputs_under_hash_seeds(script: str, *args: str) -> list[str]:
    """The stdout of ``script`` run under PYTHONHASHSEED 1 and 2, with bqual
    and the test helpers (``oracle``) importable."""
    src = str(Path(bqual.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, tests, os.environ.get("PYTHONPATH")))
        )
        run = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    return outputs


def test_plans_do_not_depend_on_hash_seed():
    outputs = _outputs_under_hash_seeds(_PLAN_SCRIPT)
    plans = json.loads(outputs[0])
    assert [len(p["extra"]) + len(p["missing"]) for p in plans] == [10, 6]
    assert outputs[0] == outputs[1]


# Prints the message plan_from_json gives for each of three plans on CM1
# with six offending transitions apiece, listed against the canonical order:
# derived extras, underived removals, and removals under two operations
# outside the plan's scope.
_VALIDATE_SCRIPT = """
import sys
from pathlib import Path
from bqual.explorer import explore
from bqual.mutation import MutationError, plan_from_json
from bqual.parser import parse_machine

result = explore(parse_machine(Path(sys.argv[1]).read_text()), meter_memory=False)


def state(i):
    return {name: value.to_json() for name, value in zip(result.variable_order, result.rows[i])}


order = result.canonical[1]
columns = (column[order].tolist() for column in (result.pre, result.label, result.post))
ordered = [
    {"pre": state(p), "op": result.labels[c], "post": state(q)} for p, c, q in zip(*columns)
]
derived = ordered[::239][:6]
underived = [dict(t, pre=t["post"], post=t["pre"]) for t in derived]
by_label = {label: [t for t in ordered if t["op"] == label] for label in result.labels}
off_scope = by_label["inc_hour"][:3] + by_label["inc_minute"][-3:]
plans = [
    {"extra": derived[::-1], "missing": []},
    {"extra": [], "missing": underived[::-1]},
    {"extra": [], "missing": off_scope[::-1], "label_scope": "next_day"},
]
for plan in plans:
    try:
        plan_from_json(plan, result)
    except MutationError as exc:
        print(exc)
"""


def test_validate_plan_names_the_first_offender():
    outputs = _outputs_under_hash_seeds(_VALIDATE_SCRIPT, str(corpus_path("CM1.mch")))
    assert outputs[0].splitlines() == [
        "extra transition [(0,0),inc_minute,(0,1)] is already derived",
        "missing transition [(0,1),inc_minute,(0,0)] is not derived",
        "plan is scoped to 'next_day' but touches 'inc_hour'",
    ]
    assert outputs[0] == outputs[1]


# Evaluates the machine at argv[1] with the default 20 trials under seed 3,
# then prints its exact fault values and the process's peak RSS in kB.
_WIDE_SCRIPT = """
import contextlib, io, json, resource, sys
from bqual.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["evaluate", "--machine", sys.argv[1], "--seed", "3", "--format", "json"])
exact = json.loads(out.getvalue())["exact"]
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "exact": exact, "peak_kb": peak}))
"""


def test_fault_injection_never_builds_an_integer_domain(tmp_path):
    # Four reached states of x : 0..N: drawing post-states from the domain
    # costs the same at N = 10^6 as at N = 10^3.  Building the 10^6 values
    # took the whole process from 62 to 280 MB; arithmetic indexing keeps
    # both at 62 MB (ru_maxrss of one child each; Linux, CPython 3.11).
    src = str(Path(bqual.__file__).resolve().parents[1])
    paths = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    runs = {}
    for n in (1_000, 1_000_000):
        machine = tmp_path / f"W{n}.mch"
        machine.write_text(
            f"MACHINE W VARIABLES x INVARIANT x : 0..{n} INITIALISATION x := 0 "
            "OPERATIONS inc = PRE x < 3 THEN x := x + 1 END END",
            encoding="utf-8",
        )
        run = subprocess.run(
            [sys.executable, "-c", _WIDE_SCRIPT, str(machine)],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 0, run.stderr
        runs[n] = json.loads(run.stdout)
    wide = runs[1_000_000]
    assert wide["code"] == 0
    assert {name: wide["exact"][name] for name in FAULT_METRICS} == {
        "fault_tolerance": "41/120",
        "recoverability": "17/60",
        "functional_analysability": "23/60",
        "fault_analysability": "3/4",
    }
    assert wide["peak_kb"] - runs[1_000]["peak_kb"] < 16 * 1024


class TestApplyPlan:
    def test_cm5_walkthrough(self, cm1_result, cm1_changed):
        changed = changed_sets(cm1_result, cm1_changed)
        assert len(changed.t_changed) == 1050
        assert len(changed.u_changed) == 1050
        assert changed.u_violating == frozenset(
            {clock_transition((5, 29), "inc_minute", (5, 30))}
        )
        assert len(changed.u_ok) == 1049

    def test_extra_masked_out(self, cm1_result, cm1_changed, cm5_plan):
        changed = changed_sets(cm1_result, cm1_changed)
        extra, missing = plan_transitions(cm1_result, cm5_plan)
        assert not changed.u_changed & extra
        assert missing <= changed.u_changed

    def test_empty_plan_is_identity(self, cm1_result, cm1_machine):
        empty = object_plan(cm1_result)
        changed = changed_sets(cm1_result, apply_plan(cm1_result, empty))
        assert changed.t_changed == cm1_result.transitions
        assert changed.u_changed == cm1_result.transitions
        assert changed.u_violating == cm1_result.violating

    def test_empty_plan_on_violating_machine(self, cm4_result, cm4_machine):
        empty = object_plan(cm4_result)
        changed = changed_sets(cm4_result, apply_plan(cm4_result, empty))
        assert changed.u_violating == cm4_result.violating

    def test_empty_plan_fault_tolerance_is_invariant_satisfiability(
        self, cm4_result, cm4_machine
    ):
        from bqual.metrics import fault_tolerance, invariant_satisfiability

        empty = object_plan(cm4_result)
        changed = changed_sets(cm4_result, apply_plan(cm4_result, empty))
        assert fault_tolerance(
            len(changed.u_changed), len(changed.u_violating)
        ) == invariant_satisfiability(cm4_result)

    def test_agrees_with_independent_reimplementation(self, cm1_result, cm1_machine):
        for seed in range(6):
            plan = generate_plan(cm1_result, 5, 5, seed)
            changed = changed_sets(cm1_result, apply_plan(cm1_result, plan))
            t2, u2, v2 = independent_apply(cm1_result, plan, cm1_machine.invariant)
            assert changed.t_changed == frozenset(t2)
            assert changed.u_changed == frozenset(u2)
            assert changed.u_violating == frozenset(v2)

    def test_agrees_on_a_cut_exploration(self, cm1_machine):
        # The limit cut 01:40, so the exploration counts it live.  The
        # changed system is walked without limits and does not, even when
        # the plan leaves every derived edge in place.
        from bqual.explorer import explore

        result = explore(cm1_machine, max_transitions=100, meter_memory=False)
        assert result.truncated and not result.violates.any()
        empty = object_plan(result)
        changed = changed_sets(result, apply_plan(result, empty))
        assert changed.u_changed == result.transitions
        assert changed.u_violating == {clock_transition((1, 39), "inc_minute", (1, 40))}
        for plan in [empty, *(generate_plan(result, 5, 5, seed) for seed in range(4))]:
            changed = changed_sets(result, apply_plan(result, plan))
            t2, u2, v2 = independent_apply(result, plan, cm1_machine.invariant)
            assert changed.t_changed == frozenset(t2)
            assert changed.u_changed == frozenset(u2)
            assert changed.u_violating == frozenset(v2)

    def test_masking_identity(self, cm1_changed, cm5_plan, cm1_result):
        changed = changed_sets(cm1_result, cm1_changed)
        extra, missing = plan_transitions(cm1_result, cm5_plan)
        reconstructed = (changed.t_changed | missing) - extra
        assert changed.u_changed == reconstructed

    def test_cm5_machine_equals_plan_application(self, cm1_result, cm5_result, cm1_machine):
        # The jump-to-6:00 edit expressed as a transition-level plan derives
        # exactly what the edited machine derives.
        plan = object_plan(
            cm1_result,
            extra=[clock_transition((3, 0), "inc_minute", (6, 0))],
            missing=[clock_transition((5, 29), "inc_minute", (5, 30))],
            label_scope="inc_minute",
        )
        changed = changed_sets(cm1_result, apply_plan(cm1_result, plan))
        assert changed.t_changed == cm5_result.transitions


class TestSharedVerdicts:
    """Plans that leave the explored states add verdicts to the map the
    exploration keeps; no plan may see another plan's edits through it."""

    SOURCE = (
        "MACHINE Gate VARIABLES x INVARIANT x : 0..5 & x /= 4 "
        "INITIALISATION x := 0 OPERATIONS "
        "up = PRE x < 2 THEN x := x + 1 END; "
        "down = PRE x > 0 THEN x := x - 1 END END"
    )

    @staticmethod
    def plan(result, *extra):
        def gate(n):
            return (intval(n),)

        return object_plan(result, extra=[Transition(gate(a), "up", gate(b)) for a, b in extra])

    @pytest.mark.parametrize("first_violating", [True, False])
    def test_each_order_agrees_with_independent_apply(self, first_violating):
        from bqual.explorer import explore
        from bqual.parser import parse_machine

        machine = parse_machine(self.SOURCE)
        result = explore(machine, meter_memory=False)
        assert len(result.states) == 3
        # 4 is new and breaks x /= 4, so the walk must not follow 4 -> 5.
        into_violation = self.plan(result, (2, 4), (4, 5))
        # 3 is new and the pre-state of an extra, so the walk follows 3 -> 5.
        from_new_state = self.plan(result, (2, 3), (3, 5))
        plans = [into_violation, from_new_state]
        if not first_violating:
            plans.reverse()
        for plan in plans:
            changed = changed_sets(result, apply_plan(result, plan))
            t2, u2, v2 = independent_apply(result, plan, machine.invariant)
            assert changed.t_changed == frozenset(t2)
            assert changed.u_changed == frozenset(u2)
            assert changed.u_violating == frozenset(v2)
        for plan, taken in ((into_violation, 5), (from_new_state, 6)):
            assert len(changed_sets(result, apply_plan(result, plan)).t_changed) == taken


class TestNoObjectsOnTheSeededPath:
    """Seeded trials, the modularity sweep and a plan file's application
    work on the exploration's ids: no ``Transition`` is built, and no view
    of the exploration as sets of rows or triples."""

    VIEWS = ("transitions", "edge_objects", "violating", "states", "deadlock_states")

    @staticmethod
    def explored(source):
        from bqual.explorer import explore
        from bqual.parser import parse_machine

        return explore(parse_machine(source), meter_memory=False)

    @pytest.mark.parametrize("jump", [False, True], ids=["CM1", "jump-clock"])
    def test_trials_and_sweep(self, jump, monkeypatch):
        source = (corpus_path("CM6.mch") if jump else corpus_path("CM1.mch")).read_text()
        # A jump clock: CM1 plus set_time onto 03:00-03:04.
        source = source.replace("hh : 0..23 & mm : 0..59", "hh : 3..3 & mm : 0..4")
        result = self.explored(source)
        built = count_transitions(monkeypatch)
        run_trials(result, seeded(result, 15, 15, 7, 3))
        modularity_sweep(result, seeded(result, 15, 15, 7))
        assert built == []
        assert not set(self.VIEWS) & set(vars(result))

    def test_plan_file(self, cm1_machine, monkeypatch):
        from bqual.evaluation import EvaluationConfig, evaluate

        machine, plan_path = str(corpus_path("CM1.mch")), str(corpus_path("cm5-plan.json"))
        result = self.explored(corpus_path("CM1.mch").read_text())
        built = count_transitions(monkeypatch)
        plan = load_plan(plan_path, result, cm1_machine.element_sets)
        changed = apply_plan(result, plan)
        run_trials(result, [changed])
        modularity_sweep(result, [changed])
        evaluate(EvaluationConfig(machine_path=machine, plan_path=plan_path))
        assert built == []
        assert not set(self.VIEWS) & set(vars(result))


class TestTrialMetrics:
    def test_cm5_values(self, cm1_result, cm1_changed):
        values, _, reasons = run_trials(cm1_result, [cm1_changed])
        assert values["fault_tolerance"] == 1 - Fraction(1, 1050)
        assert values["recoverability"] == Fraction(1049, 1440)
        assert values["functional_analysability"] == 1 - Fraction(1050, 1440)
        assert values["fault_analysability"] == 1
        assert reasons == {}


class TestRunTrials:
    def test_deterministic(self, cm1_result):
        a_means, a_exclusions, _ = run_trials(cm1_result, seeded(cm1_result, 3, 3, 9, 5))
        b_means, b_exclusions, _ = run_trials(cm1_result, seeded(cm1_result, 3, 3, 9, 5))
        assert a_means == b_means
        assert a_exclusions == b_exclusions

    def test_frozen_golden_means(self, cm1_result):
        # Frozen under seed 42 after cross-validating every trial against
        # independent_apply (see test_agrees_with_independent_reimplementation).
        means, exclusions, _ = run_trials(cm1_result, seeded(cm1_result, 5, 5, 42, 20))
        assert means["recoverability"] == Fraction(431, 2400)
        assert means["functional_analysability"] == Fraction(2941, 3600)
        assert means["fault_analysability"] == 1
        assert means["fault_tolerance"] == Fraction(
            4093266741609061431323420621, 4308983375812524963404632320
        )
        assert exclusions == {
            "fault_tolerance": 0,
            "recoverability": 0,
            "functional_analysability": 0,
            "fault_analysability": 0,
        }

    def test_zero_trials_rejected(self, cm1_result):
        with pytest.raises(MutationError):
            run_trials(cm1_result, seeded(cm1_result, 1, 1, 0, 0))


class TestModularitySweep:
    def test_empty_plans_give_all_ones(self, cm1_result):
        per_op, weighted = modularity_sweep(cm1_result, seeded(cm1_result, 0, 0, 0))
        assert all(value == 1 for value in per_op.values())
        assert weighted == 1

    def test_plan_scoped_to_an_operation_never_derived(self):
        from bqual.explorer import explore
        from bqual.parser import parse_machine

        machine = parse_machine(
            "MACHINE Idle VARIABLES x INVARIANT x : 0..2 INITIALISATION x := 0 "
            "OPERATIONS up = PRE x < 2 THEN x := x + 1 END; "
            "never = PRE x > 5 THEN x := 0 END END"
        )
        result = explore(machine, meter_memory=False)
        plan = plan_from_json(
            {"extra": [{"pre": {"x": 0}, "op": "never", "post": {"x": 2}}],
             "missing": [], "label_scope": "never"},
            result,
        )
        # Only derived operations are scored; the scoped one has no transition.
        assert modularity_sweep(result, [apply_plan(result, plan)]) == ({"up": 1}, 1)

    def test_two_op_toy_hand_values(self):
        from bqual.explorer import explore
        from bqual.parser import parse_machine
        from bqual.metrics import modularity_of

        machine = parse_machine(
            "MACHINE Two VARIABLES x INVARIANT x : 0..3 INITIALISATION x := 0 "
            "OPERATIONS fwd = PRE x < 3 THEN x := x + 1 END; "
            "rst = PRE x = 3 THEN x := 0 END END"
        )
        result = explore(machine, meter_memory=False)
        assert len(result.transitions) == 4
        plan = object_plan(
            result,
            missing=[Transition((intval(1),), "fwd", (intval(2),))],
            label_scope="fwd",
        )
        changed = changed_sets(result, apply_plan(result, plan))
        # losing 1->2 strands rst's only transition (3 -> 0 is unreachable)
        sizes = erased_sizes("fwd", result.transitions, changed.t_changed)
        assert modularity_of("fwd", *sizes) == 0

    def test_seeded_sweep_is_deterministic(self, cm1_result):
        first = modularity_sweep(cm1_result, seeded(cm1_result, 1, 1, 5))
        second = modularity_sweep(cm1_result, seeded(cm1_result, 1, 1, 5))
        assert first == second
