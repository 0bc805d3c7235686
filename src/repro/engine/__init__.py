"""Chase & Backchase engine: the C&B algorithm and its optimizations."""

from .backchase import BackchaseConfig, BackchaseEngine, BackchaseResult
from .cb import CBConfig, CBEngine, CBResult
from .chase import ChaseConfig, ChaseEngine, ChaseResult, ChaseStatistics, chase_query
from .containment import ContainmentChecker
from .homomorphism import NaiveHomomorphismFinder, query_homomorphism
from .join_tree import CompiledConjunction, JoinTreeHomomorphismFinder
from .pruning import (
    GrexAtomClassifier,
    SubqueryLegality,
    prune_parallel_descendant_atoms,
)
from .shortcut import ClosureSpec, ShortcutChaseEngine, descendant_closure
from .symbolic_instance import SymbolicInstance

__all__ = [
    "BackchaseConfig",
    "BackchaseEngine",
    "BackchaseResult",
    "CBConfig",
    "CBEngine",
    "CBResult",
    "ChaseConfig",
    "ChaseEngine",
    "ChaseResult",
    "ChaseStatistics",
    "ClosureSpec",
    "CompiledConjunction",
    "ContainmentChecker",
    "GrexAtomClassifier",
    "JoinTreeHomomorphismFinder",
    "NaiveHomomorphismFinder",
    "ShortcutChaseEngine",
    "SubqueryLegality",
    "SymbolicInstance",
    "chase_query",
    "descendant_closure",
    "prune_parallel_descendant_atoms",
    "query_homomorphism",
]
