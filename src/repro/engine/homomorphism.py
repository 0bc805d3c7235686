"""Homomorphism search between conjunctions of atoms.

Finding a homomorphism from the premise of a dependency into the body of a
query is the elementary operation of the chase (paper section 3.1).  Two
strategies are provided:

* :class:`NaiveHomomorphismFinder` -- tuple-at-a-time backtracking search,
  faithful to the original C&B prototype of Popa et al. [26].  It is kept as
  the baseline for the "new vs. original implementation" experiments.
* :class:`JoinTreeHomomorphismFinder` (in :mod:`repro.engine.join_tree`) --
  the paper's new set-oriented implementation, which evaluates the premise
  as a relational query over a symbolic instance using hash joins.

Both implementations share the same interface: given pattern atoms and a
target set of atoms, enumerate the mappings from pattern variables to target
terms under which every pattern atom lands inside the target.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..logical.atoms import (
    Atom,
    EqualityAtom,
    InequalityAtom,
    RelationalAtom,
)
from ..logical.terms import Term, Variable, is_variable

Homomorphism = Dict[Variable, Term]


def _unify_atom(
    pattern: RelationalAtom, target: RelationalAtom, mapping: Homomorphism
) -> Optional[Homomorphism]:
    """Extend *mapping* so *pattern* maps onto *target*; return None on clash."""
    if pattern.relation != target.relation or pattern.arity != target.arity:
        return None
    extended = dict(mapping)
    for pattern_term, target_term in zip(pattern.terms, target.terms):
        if is_variable(pattern_term):
            bound = extended.get(pattern_term)
            if bound is None:
                extended[pattern_term] = target_term
            elif bound != target_term:
                return None
        else:
            if pattern_term != target_term:
                return None
    return extended


def _filters_hold(pattern_atoms: Sequence[Atom], mapping: Homomorphism) -> bool:
    """Check the equality and inequality atoms of the pattern under *mapping*.

    An equality holds when both sides map to the same term, an inequality
    when they map to distinct terms: the chase reads the distinct terms of
    the canonical instance as distinct labelled nulls, the standard chase
    semantics.  Relational atoms are skipped.
    """
    for atom in pattern_atoms:
        if isinstance(atom, EqualityAtom):
            if mapping.get(atom.left, atom.left) != mapping.get(atom.right, atom.right):
                return False
        elif isinstance(atom, InequalityAtom):
            if mapping.get(atom.left, atom.left) == mapping.get(atom.right, atom.right):
                return False
    return True


class NaiveHomomorphismFinder:
    """Backtracking, tuple-at-a-time homomorphism search (the [26] baseline)."""

    def find_all(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> List[Homomorphism]:
        """Return every homomorphism from *pattern* into *target* extending *seed*."""
        return list(self.iterate(pattern, target, seed))

    def find_one(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> Optional[Homomorphism]:
        """Return some homomorphism from *pattern* into *target*, or ``None``."""
        for mapping in self.iterate(pattern, target, seed):
            return mapping
        return None

    def iterate(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> Iterator[Homomorphism]:
        relational_pattern = [a for a in pattern if isinstance(a, RelationalAtom)]
        target_relational = [a for a in target if isinstance(a, RelationalAtom)]
        by_relation: Dict[str, List[RelationalAtom]] = {}
        for atom in target_relational:
            by_relation.setdefault(atom.relation, []).append(atom)
        initial: Homomorphism = dict(seed) if seed else {}

        def backtrack(index: int, mapping: Homomorphism) -> Iterator[Homomorphism]:
            if index == len(relational_pattern):
                if _filters_hold(pattern, mapping):
                    yield dict(mapping)
                return
            atom = relational_pattern[index]
            for candidate in by_relation.get(atom.relation, ()):  # all same-name atoms
                extended = _unify_atom(atom, candidate, mapping)
                if extended is not None:
                    yield from backtrack(index + 1, extended)

        yield from backtrack(0, initial)

    def exists(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> bool:
        return self.find_one(pattern, target, seed) is not None


def query_homomorphism(
    source_head: Sequence[Term],
    source_body: Sequence[Atom],
    target_head: Sequence[Term],
    target_body: Sequence[Atom],
    finder: Optional[NaiveHomomorphismFinder] = None,
) -> Optional[Homomorphism]:
    """Find a containment mapping between two queries with compatible heads.

    The mapping must send the i-th head term of the source to the i-th head
    term of the target; this is the classical containment-mapping condition.
    """
    if len(source_head) != len(target_head):
        return None
    seed: Homomorphism = {}
    for source_term, target_term in zip(source_head, target_head):
        if is_variable(source_term):
            bound = seed.get(source_term)
            if bound is not None and bound != target_term:
                return None
            seed[source_term] = target_term
        else:
            if source_term != target_term:
                return None
    finder = finder or NaiveHomomorphismFinder()
    return finder.find_one(source_body, target_body, seed)
