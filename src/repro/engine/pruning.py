"""XML-specific optimizations of the backchase search space.

Paper section 3.2 describes three criteria that shrink the universal plan
and the set of subqueries the backchase must inspect, without losing the
optimal reformulation:

1. ``desc`` atoms that run *parallel* to a chain of ``child``/``desc`` atoms
   are removed from the universal plan (navigating a descendant edge can
   never be cheaper than the explicit chain under a reasonable cost model).
2. Child/descendant navigation steps in a subquery must be contiguous --
   no "jumping" into the middle of a document.
3. A subquery must contain a valid entry point into each document it
   navigates (a ``root`` atom, an unproduced context node, or a non-GReX
   atom such as a view).

Criteria 2-3 are enforced constructively: a directed *reachability graph*
over the atoms of the universal plan is built, and the backchase only ever
extends a candidate subquery with atoms reachable from what it already
contains, exactly as the paper prescribes.

The backchase's *mandatory core* (see :mod:`repro.engine.backchase`) is a
fourth cut of the same search space, orthogonal to these: once earned, the
enumeration is seeded with the atoms every reformulation must keep rather
than with entry atoms.  Such a seed need not satisfy criteria 2-3 itself,
so the backchase then asks :meth:`SubqueryLegality.is_legal` before it
answers for a subset, and keeps extending under the same reachability rule
(:meth:`SubqueryLegality.attaches`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

from ..logical.atoms import RelationalAtom
from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Term
from .shortcut import ClosureSpec


@dataclass(frozen=True)
class GrexAtomClassifier:
    """Classifies atoms of a universal plan with respect to GReX relations."""

    specs: Tuple[ClosureSpec, ...]
    navigation: FrozenSet[str] = field(compare=False, repr=False)
    roots: FrozenSet[str] = field(compare=False, repr=False)
    properties: FrozenSet[str] = field(compare=False, repr=False)

    def __init__(self, specs: Sequence[ClosureSpec]):
        specs = tuple(specs)
        navigation, roots, properties = set(), set(), set()
        for spec in specs:
            navigation.update((spec.child, spec.desc))
            roots.add(spec.root)
            properties.update((spec.tag, spec.text, spec.attr, spec.id, spec.el))
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "navigation", frozenset(navigation))
        object.__setattr__(self, "roots", frozenset(roots))
        object.__setattr__(self, "properties", frozenset(properties))

    def is_navigation(self, atom: RelationalAtom) -> bool:
        return atom.relation in self.navigation and atom.arity == 2

    def is_root(self, atom: RelationalAtom) -> bool:
        return atom.relation in self.roots

    def is_property(self, atom: RelationalAtom) -> bool:
        return atom.relation in self.properties

    def is_grex(self, atom: RelationalAtom) -> bool:
        return self.is_navigation(atom) or self.is_root(atom) or self.is_property(atom)

    def is_descendant(self, atom: RelationalAtom) -> bool:
        return any(atom.relation == spec.desc for spec in self.specs)


def prune_parallel_descendant_atoms(
    plan: ConjunctiveQuery, specs: Sequence[ClosureSpec]
) -> Tuple[ConjunctiveQuery, int]:
    """Criterion 1: drop ``desc`` atoms parallel to a chain of other navigation atoms.

    Reflexive ``desc`` atoms are always dropped.  A non-reflexive ``desc(x, y)``
    is dropped when ``y`` is reachable from ``x`` through the remaining
    navigation atoms (excluding the atom itself).  Equivalence to the original
    query and optimality of the best reformulation are preserved (paper
    section 3.2, criterion 1).
    """
    classifier = GrexAtomClassifier(specs)
    atoms = list(plan.relational_body)
    navigation_edges: Dict[Term, Set[Tuple[Term, RelationalAtom]]] = {}
    for atom in atoms:
        if classifier.is_navigation(atom):
            navigation_edges.setdefault(atom.terms[0], set()).add((atom.terms[1], atom))

    def reachable_without(source: Term, target: Term, excluded: RelationalAtom) -> bool:
        frontier = [source]
        seen: Set[Term] = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            for successor, edge_atom in navigation_edges.get(node, ()):  # BFS/DFS
                if edge_atom is excluded and node == source:
                    # skip only the excluded atom when leaving the source;
                    # other occurrences of the same edge via child are allowed
                    continue
                if successor == target:
                    return True
                frontier.append(successor)
        return False

    removed: Set[RelationalAtom] = set()
    for atom in atoms:
        if not classifier.is_descendant(atom) or atom.arity != 2:
            continue
        source, target = atom.terms
        if source == target:
            removed.add(atom)
            continue
        if reachable_without(source, target, atom):
            removed.add(atom)
    if not removed:
        return plan, 0
    kept = [a for a in plan.body if not (isinstance(a, RelationalAtom) and a in removed)]
    return plan.with_body(kept), len(removed)


class SubqueryLegality:
    """Criteria 2-3: legal extension of candidate subqueries.

    Implements the directed reachability graph of paper section 3.2: the
    backchase starts candidate subqueries at *entry* atoms (roots of the
    graph) and only ever adds an atom whose context node is already covered
    by the candidate.  Non-GReX atoms (views and relational storage) are
    always entry points and cover all their variables.

    Each candidate atom is classified once, at construction: whether it is
    an entry point and which terms it makes available.  The backchase asks
    about the same few atoms for every subset it inspects.
    """

    def __init__(
        self,
        atoms: Sequence[RelationalAtom],
        specs: Sequence[ClosureSpec] = (),
        enabled: bool = True,
    ):
        self.atoms = tuple(atoms)
        self.enabled = enabled and bool(specs)
        self.classifier = GrexAtomClassifier(specs) if specs else None
        self._produced: Set[Term] = set()
        if self.classifier is not None:
            for atom in self.atoms:
                if self.classifier.is_navigation(atom):
                    self._produced.add(atom.terms[1])
                elif self.classifier.is_root(atom):
                    self._produced.add(atom.terms[0])
        self._classified: Dict[RelationalAtom, Tuple[bool, Tuple[Term, ...]]] = {}
        for atom in self.atoms:
            self._classify(atom)

    def _classify(self, atom: RelationalAtom) -> Tuple[bool, Tuple[Term, ...]]:
        """``(is an entry point, terms it makes available)`` for *atom*."""
        known = self._classified.get(atom)
        if known is not None:
            return known
        classifier = self.classifier
        if (
            classifier is None
            or not classifier.is_grex(atom)
            or classifier.is_root(atom)
        ):
            known = (True, atom.terms)
        else:
            # Navigation and property atoms alike are entry points only
            # when no navigation step of the plan produces their node.
            entry = not self.enabled or atom.terms[0] not in self._produced
            if classifier.is_navigation(atom) and not entry:
                known = (False, atom.terms[1:])
            else:
                known = (entry, atom.terms)
        self._classified[atom] = known
        return known

    # ------------------------------------------------------------------
    def is_entry(self, atom: RelationalAtom) -> bool:
        """Entry points: roots, non-GReX atoms, and unproduced context nodes."""
        return self._classify(atom)[0]

    def covered_terms(self, subset: Iterable[RelationalAtom]) -> Set[Term]:
        """Terms made available ("navigated to") by the atoms of *subset*."""
        covered: Set[Term] = set()
        for atom in subset:
            covered.update(self._classify(atom)[1])
        return covered

    def attaches(self, atom: RelationalAtom, covered: Set[Term]) -> bool:
        """May *atom* join a candidate whose atoms cover *covered*?

        Entry atoms always may; navigation and property atoms attach to an
        already-covered context node (criteria 2-3).
        """
        return self._classify(atom)[0] or atom.terms[0] in covered

    def can_extend(
        self, subset: Sequence[RelationalAtom], atom: RelationalAtom
    ) -> bool:
        """May *atom* be added to the candidate *subset* (criteria 2-3)?"""
        return self.is_entry(atom) or atom.terms[0] in self.covered_terms(subset)

    def is_legal(self, subset: Sequence[RelationalAtom]) -> bool:
        """Is the whole *subset* constructible by legal extensions?"""
        if not self.enabled:
            return True
        remaining = list(subset)
        covered: Set[Term] = set()
        progressed = True
        while remaining and progressed:
            progressed = False
            for index, atom in enumerate(remaining):
                if self.attaches(atom, covered):
                    covered.update(self._classify(atom)[1])
                    remaining.pop(index)
                    progressed = True
                    break
        return not remaining
