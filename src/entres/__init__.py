"""Collective entity resolution over declarative rule specifications.

The package resolves entity references jointly across relations: hard rules
force merges, soft rules permit them, denial constraints forbid
combinations, and similarity atoms bring string matching into rule bodies.
On top of that sit exact merge-set computations (bounds, single and maximal
solutions, possible and certain merges), recursion levels, proof-tree
explanations, and a command line pipeline.
"""

from .engine import (
    DerivStep,
    LevelMap,
    MergeSets,
    Solution,
    certain_merges,
    enumerate_solutions,
    is_possible,
    is_solution,
    lb,
    levels,
    loose_ub,
    maximal_solutions,
    merge_sets,
    possible_merges,
    solve_one,
    ub,
    verify_solution,
)
from .errors import (
    DataError,
    EntresError,
    MissingSimScore,
    NonEntityMerge,
    NotASolution,
    NotInSolution,
    SpecError,
    SpecSyntaxError,
    UnknownConstant,
)
from .explain import (
    NodeKind,
    ProofNode,
    ProofTree,
    proof_tree,
    rule_depth,
    to_dot,
    to_json,
    validate_proof_tree,
)
from .matcher import (
    AnswerSet,
    Context,
    SimResolver,
    Witness,
    answers,
    dc_satisfied,
    rule_satisfied,
)
from .model import (
    NULL,
    Constant,
    Database,
    EqRel,
    Fact,
    Kind,
    MergePair,
    entity,
    value,
)
from .rules import (
    DenialConstraint,
    Rule,
    RuleKind,
    Schema,
    SimSafetyViolation,
    Specification,
    analyse,
    load_spec,
    parse_spec,
    validate_sim_safety,
)
from .simkit import (
    OnDemandResolver,
    SimStore,
    SimTable,
    StrictResolver,
    TableResolver,
    TfidfModel,
    build_registry,
    sim_all,
    sim_cs,
    sim_opt,
)

__version__ = "0.1.0"

#: names served from .cli on first use: importing .cli here would run it
#: twice under `python -m entres.cli`
_CLI_NAMES = ("evaluate", "ingest", "load_truth")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnswerSet", "Constant", "Context", "DataError", "Database",
    "DenialConstraint", "DerivStep", "EntresError", "EqRel", "Fact", "Kind",
    "LevelMap", "MergePair", "MergeSets", "MissingSimScore", "NULL",
    "NodeKind", "NonEntityMerge", "NotASolution", "NotInSolution",
    "OnDemandResolver", "ProofNode", "ProofTree", "Rule", "RuleKind",
    "Schema", "SimResolver", "SimSafetyViolation", "SimStore", "SimTable",
    "Solution", "SpecError", "SpecSyntaxError", "Specification",
    "StrictResolver", "TableResolver", "TfidfModel", "UnknownConstant",
    "Witness", "analyse", "answers", "build_registry",
    "certain_merges", "dc_satisfied", "enumerate_solutions", "entity",
    "evaluate", "ingest", "is_possible", "is_solution", "lb", "levels",
    "load_spec", "load_truth", "loose_ub", "maximal_solutions", "merge_sets",
    "parse_spec", "possible_merges", "proof_tree", "rule_depth",
    "rule_satisfied", "sim_all", "sim_cs", "sim_opt", "solve_one", "to_dot",
    "to_json", "ub", "validate_proof_tree",
    "validate_sim_safety", "value", "verify_solution",
]
