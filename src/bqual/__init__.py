"""Quality evaluation for bounded B abstract machines.

Parse a machine, derive its labelled transition system by explicit-state
exploration, and score it against the ISO/IEC 25010-derived metric vector
(functional suitability, security/reliability, maintainability,
performance efficiency and usability), including the fault-injection
metrics.
"""

__version__ = "0.1.0"

from .alignment import AlignmentOutcome, similarity
from .explorer import ExplorationResult, check_goal, explore, infer_domains
from .lts import Transition, Value, boolval, enumval, intval
from .metrics import NotComputable, QualityReport
from .mutation import ChangedSystem, MutationPlan, apply_plan, generate_plan
from .parser import parse_machine, parse_predicate

__all__ = [
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
