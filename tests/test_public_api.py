"""The names ``bqual`` exports: a change to the list is a deliberate diff."""

import bqual

EXPORTED = [
    "AlignmentOutcome",
    "ChangedSystem",
    "ExplorationResult",
    "MutationPlan",
    "NotComputable",
    "QualityReport",
    "Transition",
    "Value",
    "apply_plan",
    "boolval",
    "check_goal",
    "enumval",
    "explore",
    "generate_plan",
    "infer_domains",
    "intval",
    "parse_machine",
    "parse_predicate",
    "similarity",
    "__version__",
]


def test_all_is_the_intended_list():
    assert bqual.__all__ == EXPORTED


def test_every_exported_name_imports():
    namespace = {}
    exec("from bqual import *", namespace)
    assert set(EXPORTED) <= namespace.keys()
