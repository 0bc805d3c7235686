"""Containment and equivalence of conjunctive queries under dependencies.

The classical chase-based test: ``Q1`` is contained in ``Q2`` under a set of
dependencies ``Sigma`` iff there is a containment mapping from ``Q2`` into
(every branch of) ``chase_Sigma(Q1)`` that maps ``Q2``'s head onto ``Q1``'s
head.  The backchase uses the specialised form of this test: a subquery
``S`` of the universal plan is equivalent to the original query ``Q`` iff
``S`` is contained in ``Q`` (the other direction is automatic because ``S``'s
body is a subset of the chase of ``Q``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..logical.dependencies import DED
from ..logical.queries import ConjunctiveQuery
from .chase import ChaseConfig, ChaseEngine, ChaseResult
from .homomorphism import NaiveHomomorphismFinder, query_homomorphism
from .join_tree import JoinTreeHomomorphismFinder
from .shortcut import ClosureSpec, ShortcutChaseEngine


# A long-lived checker (one per CBEngine, i.e. per configuration version)
# sees an open-ended stream of queries; the memo starts over at this size.
_RELEVANT_MEMO_LIMIT = 4096


class ContainmentChecker:
    """Chase-based containment and equivalence tests.

    When closure specs are supplied, the chases performed by the checker use
    the :class:`ShortcutChaseEngine`, so that the reflexive-transitive
    closure axioms of TIX never have to be chased step by step (this matters
    a lot: the backchase performs one chase per candidate subquery).
    """

    def __init__(
        self,
        config: Optional[ChaseConfig] = None,
        specs: Sequence[ClosureSpec] = (),
    ):
        self.config = config or ChaseConfig()
        self.specs = tuple(specs)
        if self.specs:
            self.engine = ShortcutChaseEngine(self.specs, self.config)
        else:
            self.engine = ChaseEngine(self.config)
        self._naive_finder = NaiveHomomorphismFinder()
        self._join_finder = JoinTreeHomomorphismFinder()
        # relevant_dependencies() depends only on the candidate's relation
        # names, and the backchase asks for the same few name sets over and
        # over against one dependency sequence.  The sequence is held so the
        # identity test below stays meaningful.
        self._relevant_for: Optional[Sequence[DED]] = None
        self._relevant_memo: Dict[FrozenSet[str], Tuple[DED, ...]] = {}

    # ------------------------------------------------------------------
    def clear_compiled_patterns(self) -> None:
        """Drop the patterns compiled for containment mappings so far."""
        self._join_finder.clear()

    def _finder(self):
        if self.config.strategy == "naive":
            return self._naive_finder
        return self._join_finder

    @staticmethod
    def relevant_dependencies(
        query: ConjunctiveQuery, dependencies: Sequence[DED]
    ) -> Sequence[DED]:
        """Dependencies that can possibly fire when chasing *query*.

        A dependency can only fire once every relation of its premise is
        derivable; derivability is computed as a fixpoint starting from the
        relations of the query.  Filtering by relevance does not change the
        chase result but avoids repeatedly scanning constraints about
        documents and views the candidate never touches -- important because
        the backchase performs one chase per candidate subquery.
        """
        reachable = set(query.relation_names())
        remaining = list(dependencies)
        selected = []
        progressed = True
        while progressed:
            progressed = False
            still_remaining = []
            for dependency in remaining:
                premise_relations = {
                    a.relation for a in dependency.premise_relational_atoms()
                }
                if premise_relations <= reachable:
                    selected.append(dependency)
                    for disjunct in dependency.disjuncts:
                        for atom in disjunct.relational_atoms():
                            if atom.relation not in reachable:
                                reachable.add(atom.relation)
                                progressed = True
                else:
                    still_remaining.append(dependency)
            remaining = still_remaining
        return selected

    def _relevant(
        self, query: ConjunctiveQuery, dependencies: Sequence[DED]
    ) -> Tuple[DED, ...]:
        """:meth:`relevant_dependencies`, remembered per relation-name set."""
        if dependencies is not self._relevant_for:
            self._relevant_for = dependencies
            self._relevant_memo = {}
        names = query.relation_names()
        relevant = self._relevant_memo.get(names)
        if relevant is None:
            if len(self._relevant_memo) >= _RELEVANT_MEMO_LIMIT:
                self._relevant_memo.clear()
            relevant = tuple(self.relevant_dependencies(query, dependencies))
            self._relevant_memo[names] = relevant
        return relevant

    def _has_containment_mapping(
        self, outer: ConjunctiveQuery, chased_inner: ConjunctiveQuery
    ) -> bool:
        """Is there a homomorphism from *outer* into *chased_inner* fixing the head?"""
        mapping = query_homomorphism(
            outer.head,
            outer.body,
            chased_inner.head,
            chased_inner.body,
            finder=self._finder(),
        )
        return mapping is not None

    # ------------------------------------------------------------------
    def is_contained_in(
        self,
        inner: ConjunctiveQuery,
        outer: ConjunctiveQuery,
        dependencies: Sequence[DED] = (),
    ) -> bool:
        """Check ``inner ⊑ outer`` under *dependencies*.

        With a disjunctive chase, the containment mapping must exist into
        every leaf of the chase of *inner*.
        """
        if len(inner.head) != len(outer.head):
            return False
        chased = self.engine.chase(
            inner, self._relevant(inner, dependencies)
        )
        if not chased.branches:
            # The chase failed on every branch: inner is unsatisfiable, hence
            # contained in anything of matching arity.
            return True
        return all(
            self._has_containment_mapping(outer, branch) for branch in chased.branches
        )

    def is_equivalent(
        self,
        left: ConjunctiveQuery,
        right: ConjunctiveQuery,
        dependencies: Sequence[DED] = (),
    ) -> bool:
        """Check ``left ≡ right`` under *dependencies* (both containments)."""
        return self.is_contained_in(left, right, dependencies) and self.is_contained_in(
            right, left, dependencies
        )

    def is_equivalent_subquery(
        self,
        subquery: ConjunctiveQuery,
        original: ConjunctiveQuery,
        dependencies: Sequence[DED] = (),
        precomputed_chase: Optional[ChaseResult] = None,
    ) -> bool:
        """Backchase equivalence test for a subquery of the universal plan.

        Because *subquery*'s body is a subset of the chase of *original*
        (with the same head), ``original ⊑ subquery`` always holds; only
        ``subquery ⊑ original`` needs the chase-based check.  A precomputed
        chase of the subquery can be supplied to avoid repeating work.
        """
        if not subquery.is_safe():
            return False
        chased = precomputed_chase or self.engine.chase(
            subquery, self._relevant(subquery, dependencies)
        )
        if not chased.branches:
            return True
        return all(
            self._has_containment_mapping(original, branch) for branch in chased.branches
        )

    def is_minimal(
        self,
        query: ConjunctiveQuery,
        dependencies: Sequence[DED] = (),
    ) -> bool:
        """Is *query* minimal, i.e. does dropping any body atom break equivalence?"""
        atoms = query.relational_body
        for index in range(len(atoms)):
            reduced_atoms = atoms[:index] + atoms[index + 1 :]
            candidate = query.subquery(reduced_atoms)
            if not candidate.is_safe():
                continue
            if self.is_equivalent(candidate, query, dependencies):
                return False
        return True
