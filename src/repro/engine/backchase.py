"""The backchase: enumerating minimal reformulations inside the universal plan.

After the chase produced the universal plan, every minimal reformulation of
the original query is a subquery of it (paper section 2.3, completeness
result of [11]).  The backchase inspects subqueries bottom-up, smallest
first, checking each for equivalence with the original query under the
dependencies (by chasing the subquery "back" and looking for a containment
mapping).  Cost-based pruning discards a subquery -- and all its supersets --
as soon as its cost exceeds the best reformulation found so far, which is
sound because the bound it prices with,
:meth:`~repro.cost.model.CostModel.lower_bound`, is monotone.

Only atoms over the *target* (proprietary) schema may appear in a
reformulation; the largest such subquery is the *initial reformulation*,
which is returned even when minimization is switched off.

**The mandatory core.**  Bottom-up enumeration is hopeless when the smallest
reformulation is large: every legal subset below its size is inspected
first.  Among subqueries of the universal plan, being a reformulation is
monotone upward, so a target atom is dispensable iff the initial
reformulation *minus that atom* is still a reformulation -- one equivalence
check per atom decides exactly which atoms every reformulation must keep.
That test is not free (a successful check is a full chase, and most queries
resolve in three or four checks), so the search earns it: it runs bottom-up
until it has spent as many *failed* checks as there are target atoms, then
computes the core and starts over from it, enumerating only its supersets
(see :meth:`BackchaseEngine.backchase`).  The trigger is a count, never a
clock, so the search -- and ``subqueries_inspected`` -- stays deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..cost.model import CostModel
from ..logical.atoms import RelationalAtom
from ..logical.dependencies import DED
from ..logical.queries import ConjunctiveQuery
from ..obs.timer import timer
from .containment import ContainmentChecker
from .pruning import SubqueryLegality


@dataclass
class BackchaseConfig:
    """Tuning knobs for the backchase enumeration."""

    prune_by_cost: bool = True
    stop_at_first: bool = False
    max_inspected: int = 50_000


@dataclass
class BackchaseResult:
    """All information produced by one backchase run."""

    original: ConjunctiveQuery
    universal_plan: ConjunctiveQuery
    initial_reformulation: Optional[ConjunctiveQuery]
    minimal_reformulations: List[ConjunctiveQuery] = field(default_factory=list)
    best: Optional[ConjunctiveQuery] = None
    best_cost: float = math.inf
    subqueries_inspected: int = 0
    equivalence_checks: int = 0
    elapsed_seconds: float = 0.0
    # The atoms every reformulation must keep; ``None`` while the search never
    # earned the core test (see :meth:`BackchaseEngine.backchase`).
    mandatory_core: Optional[Tuple[RelationalAtom, ...]] = None
    # False when the search stopped at ``max_inspected`` with subsets still
    # to inspect: the minimal set may then miss reformulations.
    complete: bool = True

    @property
    def found(self) -> bool:
        return self.best is not None or self.initial_reformulation is not None


_COMPUTE_INITIAL = object()


class BackchaseEngine:
    """Bottom-up enumeration of minimal reformulations with cost-based pruning."""

    def __init__(
        self,
        checker: Optional[ContainmentChecker] = None,
        cost_model: Optional[CostModel] = None,
        config: Optional[BackchaseConfig] = None,
    ):
        self.checker = checker or ContainmentChecker()
        self.cost_model = cost_model or CostModel()
        self.config = config or BackchaseConfig()

    # ------------------------------------------------------------------
    def target_atoms(
        self,
        universal_plan: ConjunctiveQuery,
        target_relations: Optional[Set[str]],
    ) -> Tuple[RelationalAtom, ...]:
        """Atoms of the universal plan allowed to appear in reformulations."""
        atoms = universal_plan.relational_body
        if target_relations is None:
            return atoms
        return tuple(a for a in atoms if a.relation in target_relations)

    def initial_reformulation(
        self,
        original: ConjunctiveQuery,
        universal_plan: ConjunctiveQuery,
        dependencies: Sequence[DED],
        target_relations: Optional[Set[str]] = None,
        verify: bool = True,
    ) -> Optional[ConjunctiveQuery]:
        """The largest subquery induced by proprietary-schema atoms.

        Paper section 2.3: if any reformulation exists, this one is a
        reformulation too (generally not minimal).  When *verify* is set the
        equivalence is checked explicitly and ``None`` is returned if it
        fails (meaning no reformulation exists at all).
        """
        atoms = self.target_atoms(universal_plan, target_relations)
        if not atoms:
            return None
        candidate = universal_plan.subquery(atoms).with_name(f"{original.name}_initial")
        if not candidate.is_safe():
            return None
        if verify and not self.checker.is_equivalent_subquery(
            candidate, original, dependencies
        ):
            return None
        return candidate

    def mandatory_core(
        self,
        original: ConjunctiveQuery,
        universal_plan: ConjunctiveQuery,
        dependencies: Sequence[DED],
        candidates: Sequence[RelationalAtom],
    ) -> FrozenSet[int]:
        """Indices of the candidate atoms no reformulation can do without.

        Among subqueries of the universal plan "is a reformulation" is
        monotone upward (``S <= S'`` implies ``S'`` is contained in ``S``,
        and every subquery already contains the original), so an atom is
        missing from *some* reformulation iff all candidates but that atom
        still form one.  Exact, at one equivalence check per candidate.
        """
        return frozenset(
            index
            for index in range(len(candidates))
            if not self.checker.is_equivalent_subquery(
                universal_plan.subquery(candidates[:index] + candidates[index + 1 :]),
                original,
                dependencies,
            )
        )

    # ------------------------------------------------------------------
    def backchase(
        self,
        original: ConjunctiveQuery,
        universal_plan: ConjunctiveQuery,
        dependencies: Sequence[DED],
        target_relations: Optional[Set[str]] = None,
        legality: Optional[SubqueryLegality] = None,
        initial: object = _COMPUTE_INITIAL,
    ) -> BackchaseResult:
        """Enumerate minimal reformulations of *original* inside *universal_plan*.

        *initial* is the already verified result of
        :meth:`initial_reformulation` for the same arguments (``None`` when
        none exists); left out, it is computed here.

        The search is bottom-up from the entry atoms.  After as many failed
        equivalence checks as there are candidates it computes the
        :meth:`mandatory_core` (recorded on the result, counted in
        ``equivalence_checks``) and, unless that is empty, starts over from
        the core so that only its supersets are enumerated.
        """
        clock = timer()
        candidates = self.target_atoms(universal_plan, target_relations)
        if initial is _COMPUTE_INITIAL:
            initial = self.initial_reformulation(
                original, universal_plan, dependencies, target_relations
            )
        result = BackchaseResult(
            original=original,
            universal_plan=universal_plan,
            initial_reformulation=initial,
        )
        if not candidates:
            result.elapsed_seconds = clock.elapsed
            return result
        if legality is None:
            legality = SubqueryLegality(candidates, specs=(), enabled=False)
        if self.config.prune_by_cost and result.initial_reformulation is not None:
            # The initial reformulation is itself a reformulation, so its cost
            # is a sound upper bound that lets pruning start immediately
            # (the "best cost seen so far" of the paper's backchase).
            result.best_cost = self.cost_model.lower_bound(result.initial_reformulation)

        found_sets: List[FrozenSet[int]] = []
        seen: Set[FrozenSet[int]] = set()
        # Failed equivalence checks so far.  Once the search has spent as
        # many as one check per candidate -- the price of the mandatory-core
        # test -- the core is computed and the enumeration restarts from it.
        # A count, not a clock: the search stays deterministic.
        failed_checks = 0
        core: Optional[FrozenSet[int]] = None

        def materialize(subset: FrozenSet[int]):
            atoms = [candidates[i] for i in sorted(subset)]
            subquery = universal_plan.subquery(atoms)
            return atoms, subquery, self.cost_model.lower_bound(subquery)

        def record_reformulation(subset: FrozenSet[int], query: ConjunctiveQuery, cost: float):
            named = query.with_name(f"{original.name}_reform{len(result.minimal_reformulations)}")
            result.minimal_reformulations.append(named)
            found_sets.append(subset)
            if result.best is None or cost < result.best_cost:
                result.best_cost = min(cost, result.best_cost)
                result.best = named

        # Level 1: entry atoms.
        level: List[FrozenSet[int]] = []
        for index, atom in enumerate(candidates):
            if legality.is_entry(atom):
                subset = frozenset((index,))
                seen.add(subset)
                level.append(subset)

        while level:
            next_level: List[FrozenSet[int]] = []
            prepared = {}
            if len(level) <= 512:
                # Process cheap subsets first so that reformulations found
                # early drive the cost-based pruning of the rest of the level.
                prepared = {subset: materialize(subset) for subset in level}
                level.sort(key=lambda subset: prepared[subset][2])
            for subset in level:
                if any(found <= subset for found in found_sets):
                    continue  # supersets of reformulations are never minimal
                if result.subqueries_inspected >= self.config.max_inspected:
                    result.complete = False
                    result.elapsed_seconds = clock.elapsed
                    return result
                atoms, subquery, cost = prepared.get(subset) or materialize(subset)
                result.subqueries_inspected += 1
                # Cost-based pruning applies to every candidate (safe or not):
                # the cost model is monotone, so once a subquery is costlier
                # than the best reformulation found, so is every superset.
                if self.config.prune_by_cost and cost > result.best_cost:
                    continue  # prune this subquery and all its supersets
                # Subsets grown from entry atoms are legal by construction;
                # those grown from the core are not, and the search must
                # keep answering only for legal ones.
                if subquery.is_safe() and (not core or legality.is_legal(atoms)):
                    result.equivalence_checks += 1
                    if self.checker.is_equivalent_subquery(subquery, original, dependencies):
                        record_reformulation(subset, subquery, cost)
                        if self.config.stop_at_first:
                            result.elapsed_seconds = clock.elapsed
                            return result
                        continue  # supersets cannot be minimal
                    else:
                        failed_checks += 1
                        if core is None and failed_checks >= len(candidates):
                            core = self.mandatory_core(
                                original, universal_plan, dependencies, candidates
                            )
                            result.equivalence_checks += len(candidates)
                            result.mandatory_core = tuple(
                                candidates[i] for i in sorted(core)
                            )
                            if core:
                                # Every reformulation contains the core, and
                                # every legal superset of it is reachable from
                                # it by legal extensions: drop what is pending
                                # and start over there.
                                seen = {core}
                                next_level = [core]
                                break
                covered = legality.covered_terms(atoms)
                for index, atom in enumerate(candidates):
                    if index in subset:
                        continue
                    extended = subset | {index}
                    if extended in seen:
                        continue
                    if not legality.attaches(atom, covered):
                        continue
                    seen.add(extended)
                    next_level.append(extended)
            level = next_level

        result.elapsed_seconds = clock.elapsed
        return result
