"""The chase: rewriting a query with embedded dependencies until fixpoint.

The chase is the main operation of the C&B algorithm (paper sections 2.3 and
3.1).  A chase *step* of a query ``Q`` with a dependency ``c`` applies when

(i)  there is a homomorphism ``h`` from the premise of ``c`` into the body
     of ``Q``, and
(ii) ``h`` cannot be extended to a homomorphism of any disjunct of ``c``'s
     conclusion into the body of ``Q``.

Its effect is to add the image of a conclusion disjunct under ``h`` to the
body (with fresh variables for existentials) and to merge the terms its
equalities equate: tuple- and equality-generating steps are the two halves
of one step.  The merge is :func:`~repro.logical.terms.merge_equal_terms`,
the union-find that also collapses a query's own equalities.  Disjunctive
dependencies branch the chase into one copy per disjunct; the result of the
chase is therefore a set of leaf queries.

Two homomorphism-search strategies are available, mirroring the paper:

* ``"naive"``   -- backtracking search, one candidate tuple at a time
  (the original C&B prototype's strategy, kept as the experimental baseline);
* ``"joinTree"`` -- the new set-oriented implementation: premises compiled
  to hash-join plans evaluated over the symbolic instance ``Inst(Q)``, with
  the extension check done as a bulk semijoin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ChaseError
from ..obs.timer import timer
from ..logical.atoms import Atom, EqualityAtom, atom_variables
from ..logical.dependencies import DED, Disjunct
from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Term, Variable, VariableFactory, merge_equal_terms
from .homomorphism import Homomorphism, NaiveHomomorphismFinder, _filters_hold
from .join_tree import CompiledConjunction
from .symbolic_instance import SymbolicInstance

DEFAULT_MAX_STEPS = 100_000
DEFAULT_MAX_BRANCHES = 64


@dataclass
class ChaseConfig:
    """Tuning knobs for the chase engine."""

    strategy: str = "joinTree"  # "joinTree" (new implementation) or "naive"
    max_steps: int = DEFAULT_MAX_STEPS
    max_branches: int = DEFAULT_MAX_BRANCHES
    raise_on_budget: bool = True


@dataclass
class ChaseStatistics:
    """Counters reported by a chase run (used by the experiments)."""

    steps_applied: int = 0
    homomorphisms_found: int = 0
    dependencies_fired: Dict[str, int] = field(default_factory=dict)
    branches: int = 1
    elapsed_seconds: float = 0.0

    def record(self, dependency: DED) -> None:
        self.steps_applied += 1
        self.dependencies_fired[dependency.name] = (
            self.dependencies_fired.get(dependency.name, 0) + 1
        )


@dataclass
class ChaseResult:
    """The outcome of chasing a query: one or more leaf queries plus counters."""

    original: ConjunctiveQuery
    branches: List[ConjunctiveQuery]
    statistics: ChaseStatistics

    @property
    def universal_plan(self) -> ConjunctiveQuery:
        """The single chase result; raises when the chase branched."""
        if len(self.branches) != 1:
            raise ChaseError(
                f"chase produced {len(self.branches)} branches; "
                "use .branches for disjunctive results"
            )
        return self.branches[0]


class _CompiledDependency:
    """A dependency with premise and conclusions compiled for fast evaluation."""

    def __init__(self, dependency: DED):
        self.dependency = dependency
        self.premise_plan = CompiledConjunction(dependency.premise)
        # The premise's homomorphisms bind the variables of its relational
        # atoms: those are the ones a disjunct's extension is seeded with.
        universal = set(atom_variables(dependency.premise_relational_atoms()))
        self.disjunct_plans: List[CompiledConjunction] = []
        self.disjunct_shared: List[Tuple[Variable, ...]] = []
        for disjunct in dependency.disjuncts:
            shared = tuple(v for v in disjunct.variables() if v in universal)
            self.disjunct_plans.append(
                CompiledConjunction(disjunct.relational_atoms(), seed_variables=shared)
            )
            self.disjunct_shared.append(shared)


class ChaseEngine:
    """Chases conjunctive queries with DEDs using a configurable strategy."""

    def __init__(self, config: Optional[ChaseConfig] = None):
        self.config = config or ChaseConfig()
        if self.config.strategy not in ("naive", "joinTree"):
            raise ChaseError(f"unknown chase strategy {self.config.strategy!r}")
        self._naive = NaiveHomomorphismFinder()
        self._compiled_cache: Dict[int, _CompiledDependency] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def chase(
        self,
        query: ConjunctiveQuery,
        dependencies: Sequence[DED],
    ) -> ChaseResult:
        """Chase *query* with *dependencies* until no step applies."""
        clock = timer()
        statistics = ChaseStatistics()
        factory = VariableFactory(prefix="_x", used=[v.name for v in query.variables()])
        frontier: List[ConjunctiveQuery] = [query.dedupe()]
        finished: List[ConjunctiveQuery] = []
        compiled = [self._compile(dependency) for dependency in dependencies]

        while frontier:
            current = frontier.pop()
            outcome = self._chase_branch(current, compiled, factory, statistics)
            if outcome is None:
                # inconsistent branch (chase failure): drop it
                continue
            branch_results, saturated = outcome
            if saturated:
                finished.extend(branch_results)
            else:
                frontier.extend(branch_results)
            if len(frontier) + len(finished) > self.config.max_branches:
                if self.config.raise_on_budget:
                    raise ChaseError(
                        f"chase exceeded branch budget ({self.config.max_branches})"
                    )
                finished.extend(frontier)
                frontier = []
        statistics.branches = max(1, len(finished))
        statistics.elapsed_seconds = clock.elapsed
        return ChaseResult(original=query, branches=finished, statistics=statistics)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compile(self, dependency: DED) -> _CompiledDependency:
        key = id(dependency)
        plan = self._compiled_cache.get(key)
        if plan is None:
            plan = _CompiledDependency(dependency)
            self._compiled_cache[key] = plan
        return plan

    def _chase_branch(
        self,
        query: ConjunctiveQuery,
        compiled: Sequence[_CompiledDependency],
        factory: VariableFactory,
        statistics: ChaseStatistics,
    ) -> Optional[Tuple[List[ConjunctiveQuery], bool]]:
        """Chase one branch until saturation or until it forks.

        Dependencies are processed in rounds.  A non-disjunctive dependency
        applies every applicable homomorphism found in a round at once
        (set-oriented processing): the images of its conclusion's relational
        atoms are added, then all the terms its equalities equate are merged
        in one substitution.  A merge renames terms the next homomorphisms
        may refer to, so a dependency with equalities is searched again
        before the round moves on.  A disjunctive dependency applies one
        homomorphism and forks the branch.

        Returns ``(queries, saturated)`` where *saturated* says whether the
        returned queries are chase leaves, or ``None`` when the branch is
        inconsistent and must be discarded.
        """
        current = query
        changed = True
        cached_instance: Optional[SymbolicInstance] = None
        cached_for: Optional[ConjunctiveQuery] = None
        while changed:
            changed = False
            for plan in compiled:
                dependency = plan.dependency
                while True:
                    if statistics.steps_applied > self.config.max_steps:
                        if self.config.raise_on_budget:
                            raise ChaseError(
                                f"chase exceeded step budget ({self.config.max_steps})"
                            )
                        return [current], True
                    if cached_for is not current:
                        cached_instance = SymbolicInstance.from_query(current)
                        cached_for = current
                    instance = cached_instance
                    homomorphisms = self._premise_homomorphisms(plan, current, instance)
                    statistics.homomorphisms_found += len(homomorphisms)
                    applicable = [
                        h
                        for h in homomorphisms
                        if not self._extends_to_some_disjunct(plan, h, current, instance)
                    ]
                    if not applicable:
                        break
                    if dependency.is_disjunctive:
                        statistics.record(dependency)
                        branches = []
                        for disjunct in dependency.disjuncts:
                            branch = self._apply_disjunct(
                                current, disjunct, applicable[:1], factory
                            )
                            if branch is not None:
                                branches.append(branch)
                        if not branches:
                            return None
                        if len(branches) == 1:
                            current = branches[0]
                            changed = True
                            continue
                        return branches, False
                    conclusion = dependency.disjuncts[0]
                    before = len(current.body)
                    for _ in applicable:
                        statistics.record(dependency)
                    current = self._apply_disjunct(current, conclusion, applicable, factory)
                    if current is None:
                        return None
                    if conclusion.equalities():
                        changed = True
                        continue
                    if len(current.body) != before:
                        changed = True
                    break
        return [current], True

    def _premise_homomorphisms(
        self,
        plan: _CompiledDependency,
        query: ConjunctiveQuery,
        instance: SymbolicInstance,
    ) -> List[Homomorphism]:
        if self.config.strategy == "naive":
            return self._naive.find_all(plan.dependency.premise, query.body)
        return plan.premise_plan.evaluate(instance)

    def _extends_to_some_disjunct(
        self,
        plan: _CompiledDependency,
        homomorphism: Homomorphism,
        query: ConjunctiveQuery,
        instance: SymbolicInstance,
    ) -> bool:
        for index, disjunct in enumerate(plan.dependency.disjuncts):
            if self._disjunct_satisfied(plan, index, disjunct, homomorphism, query, instance):
                return True
        return False

    def _disjunct_satisfied(
        self,
        plan: _CompiledDependency,
        index: int,
        disjunct: Disjunct,
        homomorphism: Homomorphism,
        query: ConjunctiveQuery,
        instance: SymbolicInstance,
    ) -> bool:
        seed = {
            variable: homomorphism[variable]
            for variable in plan.disjunct_shared[index]
            if variable in homomorphism
        }
        relational = disjunct.relational_atoms()
        if not relational:
            candidates = [seed]
        elif self.config.strategy == "naive":
            candidates = self._naive.find_all(relational, query.body, seed)
        else:
            candidates = plan.disjunct_plans[index].evaluate(instance, seeds=[seed])
        equalities = disjunct.equalities()
        if not equalities:
            return bool(candidates)
        return any(
            _filters_hold(equalities, {**homomorphism, **candidate})
            for candidate in candidates
        )

    def _apply_disjunct(
        self,
        query: ConjunctiveQuery,
        disjunct: Disjunct,
        homomorphisms: Sequence[Homomorphism],
        factory: VariableFactory,
    ) -> Optional[ConjunctiveQuery]:
        """Apply *disjunct* under every one of *homomorphisms* at once.

        Each homomorphism adds the image of the disjunct's relational atoms
        to the body, with fresh variables for its existentials.  Then the
        terms all the images of its equalities equate are merged in one
        substitution.  Returns ``None`` when the merge equates two distinct
        constants (chase failure / inconsistent branch).
        """
        new_atoms: List[Atom] = []
        pairs: List[Tuple[Term, Term]] = []
        for homomorphism in homomorphisms:
            mapping: Dict[Term, Term] = dict(homomorphism)
            for variable in disjunct.variables():
                if variable not in mapping:
                    mapping[variable] = factory.fresh()
            for atom in disjunct.atoms:
                replaced = atom.substitute(mapping)
                if isinstance(replaced, EqualityAtom):
                    pairs.append((replaced.left, replaced.right))
                else:
                    new_atoms.append(replaced)
        result = query.add_atoms(new_atoms) if new_atoms else query
        substitution = merge_equal_terms(pairs, set(result.head_variables()))
        if substitution is None:
            return None
        if not substitution:
            return result
        return result.substitute(substitution).dedupe()


def chase_query(
    query: ConjunctiveQuery,
    dependencies: Sequence[DED],
    config: Optional[ChaseConfig] = None,
) -> ChaseResult:
    """Convenience wrapper: chase *query* with *dependencies*."""
    return ChaseEngine(config).chase(query, dependencies)
