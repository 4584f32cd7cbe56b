"""Collective entity resolution over declarative rule specifications.

The package resolves entity references jointly across relations: hard rules
force merges, soft rules permit them, denial constraints forbid
combinations, and similarity atoms bring string matching into rule bodies.
On top of that sit exact merge-set computations (bounds, single and maximal
solutions, possible and certain merges), recursion levels, proof-tree
explanations, and a command line pipeline.

Every public name is imported from its module on first use, so that
`import entres` (and `python -m entres.cli`, which imports the package
first) loads no submodule it does not run.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("engine", """DerivStep MergeSets Solution certain_merges
            enumerate_solutions is_possible is_solution lb levels loose_ub
            maximal_solutions merge_sets possible_merges solve_one ub"""),
        ("errors", """DataError EntresError MissingSimScore NonEntityMerge
            NotASolution NotInSolution SpecError SpecSyntaxError
            UnknownConstant"""),
        ("explain", """NodeKind ProofNode ProofTree proof_tree rule_depth
            to_dot to_json"""),
        ("matcher", "Context SimResolver answers dc_satisfied rule_satisfied"),
        ("model", "NULL Constant Database EqRel Fact Kind MergePair entity value"),
        ("rules", """DenialConstraint Rule RuleKind Schema SimSafetyViolation
            Specification analyse load_spec parse_spec validate_sim_safety"""),
        ("simkit", """OnDemandResolver SimStore SimTable StrictResolver
            TableResolver TfidfModel build_registry sim_all sim_cs sim_opt"""),
        ("cli", "evaluate ingest load_truth"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    return globals().setdefault(name, value)
