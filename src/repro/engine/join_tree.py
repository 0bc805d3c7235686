"""Set-oriented homomorphism search via compiled join trees.

This is the heart of the new C&B implementation (paper section 3.1).  Each
constraint premise is compiled *once*, when the constraint is registered,
into a :class:`CompiledConjunction`: an ordered sequence of scan/hash-join
steps with selections (repeated variables, constants) pushed into the probe
keys.  Evaluating that compiled plan over the symbolic instance ``Inst(Q)``
produces, in bulk, all homomorphisms from the premise into the query body --
replacing the tuple-at-a-time backtracking of the original prototype.

The extension check of a chase step ("does the homomorphism extend to the
conclusion?") is performed with the same machinery: the conclusion is also
compiled, and the candidate homomorphisms that extend are computed as a
semijoin of the premise result with the conclusion result.

The steps are the only join kernel of the system: the memory storage
backend (:mod:`repro.storage.evaluation`) runs them over real tables,
where the chase runs them over ``Inst(Q)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..logical.atoms import Atom, RelationalAtom
from ..logical.terms import Term, Variable, is_variable
from .homomorphism import Homomorphism, _filters_hold
from .symbolic_instance import SymbolicInstance


#: Marks a variable no earlier step or seed has bound.
_UNBOUND = object()


@dataclass(frozen=True)
class JoinStep:
    """One step of the compiled plan: probe *atom* using *key_positions*.

    ``key_positions`` are the positions of the atom whose value is known
    before the step runs (constants or variables bound by earlier steps);
    they form the hash key used to probe the row source's index.
    ``bind_positions`` are all the other positions with their variables:
    the first occurrence of an unbound variable binds it, any other
    occurrence (a repeat within the atom, a seeded variable) is checked.
    """

    atom: RelationalAtom
    key_positions: Tuple[int, ...]
    key_terms: Tuple[Term, ...]
    bind_positions: Tuple[Tuple[int, Variable], ...]

    def extend(self, source, bindings: Sequence[Homomorphism]) -> List[Homomorphism]:
        """Every extension of *bindings* by a row of *source* matching the atom.

        *source* is the symbolic instance or a set of tables: it answers
        ``index(relation, positions)`` and ``row_form(terms)``, the terms
        with each :class:`Constant` as the value it takes in its rows.
        """
        index = source.index(self.atom.relation, self.key_positions)
        key_terms = source.row_form(self.key_terms)
        bind_positions, unbound = self.bind_positions, _UNBOUND
        extended_bindings: List[Homomorphism] = []
        for binding in bindings:
            key = tuple(
                binding[term] if isinstance(term, Variable) else term
                for term in key_terms
            )
            for row in index.get(key, ()):  # hash probe
                extended = dict(binding)
                for position, variable in bind_positions:
                    bound = extended.get(variable, unbound)
                    if bound is unbound:
                        extended[variable] = row[position]
                    elif bound != row[position]:
                        break
                else:
                    extended_bindings.append(extended)
        return extended_bindings


class CompiledConjunction:
    """A conjunction of atoms compiled to a pipeline of hash-join probes."""

    def __init__(
        self,
        atoms: Sequence[Atom],
        seed_variables: Sequence[Variable] = (),
    ):
        self.atoms = tuple(atoms)
        self.filters = [a for a in atoms if not isinstance(a, RelationalAtom)]
        #: The relational atoms' probes, in execution order.
        self.steps = self._compile(tuple(seed_variables))

    def _compile(self, seed_variables: Tuple[Variable, ...]) -> Tuple[JoinStep, ...]:
        """Choose a join order greedily (most-bound atom first) and plan each probe."""
        remaining = [a for a in self.atoms if isinstance(a, RelationalAtom)]
        bound: set = set(seed_variables)
        steps: List[JoinStep] = []
        while remaining:
            best_index = 0
            best_score = -1
            for index, atom in enumerate(remaining):
                score = sum(
                    1
                    for term in atom.terms
                    if not is_variable(term) or term in bound
                )
                # Prefer atoms with more bound positions; break ties by arity
                # (smaller atoms first) to keep intermediate results small.
                if score > best_score or (
                    score == best_score and atom.arity < remaining[best_index].arity
                ):
                    best_score = score
                    best_index = index
            atom = remaining.pop(best_index)
            steps.append(self._plan_step(atom, bound))
            for term in atom.terms:
                if is_variable(term):
                    bound.add(term)
        return tuple(steps)

    @staticmethod
    def _plan_step(atom: RelationalAtom, bound: set) -> JoinStep:
        key_positions: List[int] = []
        bind_positions: List[Tuple[int, Variable]] = []
        for position, term in enumerate(atom.terms):
            if not is_variable(term) or term in bound:
                key_positions.append(position)
            else:
                bind_positions.append((position, term))
        return JoinStep(
            atom=atom,
            key_positions=tuple(key_positions),
            key_terms=tuple(atom.terms[position] for position in key_positions),
            bind_positions=tuple(bind_positions),
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        instance: SymbolicInstance,
        seeds: Optional[Sequence[Homomorphism]] = None,
        target_atoms: Sequence[Atom] = (),
        limit: Optional[int] = None,
    ) -> List[Homomorphism]:
        """All homomorphisms of the conjunction into *instance*.

        *seeds* optionally fixes the images of some variables (used for the
        extension/semijoin check).  *target_atoms* supplies the inequality
        atoms of the target query so premise inequalities can be validated.
        ``limit`` stops the evaluation early once that many results exist
        (used for existence checks).
        """
        current: List[Homomorphism] = [dict(s) for s in seeds] if seeds else [{}]
        for step in self.steps:
            if not current:
                return []
            current = step.extend(instance, current)
        if self.filters:
            current = [
                binding
                for binding in current
                if _filters_hold(self.filters, target_atoms, binding)
            ]
        if limit is not None:
            current = current[:limit]
        return current


class JoinTreeHomomorphismFinder:
    """Set-oriented homomorphism finder; interface-compatible with the naive one."""

    def __init__(self):
        self._cache: Dict[Tuple[Atom, ...], CompiledConjunction] = {}

    def _compiled(self, pattern: Sequence[Atom]) -> CompiledConjunction:
        key = tuple(pattern)
        plan = self._cache.get(key)
        if plan is None:
            plan = CompiledConjunction(pattern)
            self._cache[key] = plan
        return plan

    def find_all(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> List[Homomorphism]:
        instance = SymbolicInstance.from_atoms(target)
        return self.find_all_in_instance(pattern, instance, target, seed)

    def find_all_in_instance(
        self,
        pattern: Sequence[Atom],
        instance: SymbolicInstance,
        target_atoms: Sequence[Atom] = (),
        seed: Optional[Mapping[Variable, Term]] = None,
        limit: Optional[int] = None,
    ) -> List[Homomorphism]:
        plan = self._compiled(tuple(pattern))
        seeds = [dict(seed)] if seed else None
        return plan.evaluate(instance, seeds=seeds, target_atoms=target_atoms, limit=limit)

    def find_one(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> Optional[Homomorphism]:
        instance = SymbolicInstance.from_atoms(target)
        results = self.find_all_in_instance(pattern, instance, target, seed, limit=1)
        return results[0] if results else None

    def exists(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> bool:
        return self.find_one(pattern, target, seed) is not None
