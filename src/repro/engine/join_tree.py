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

Compiling also fixes a *slot layout*: the seed variables first, then each
variable in the order a step binds it.  While the steps run, a binding is a
plain tuple holding the value of each slot bound so far.  A step builds its
probe key and the values it appends with getters made at compile time, so
extending a binding is one hash probe and one tuple concatenation per
matching row: no dictionary copy and no per-row hashing of
:class:`~repro.logical.terms.Variable`.  :meth:`CompiledConjunction.evaluate`
turns the finished tuples into :data:`Homomorphism` dictionaries once, for
the chase and the backchase.

The steps are the only join kernel of the system: the memory storage
backend (:mod:`repro.storage.evaluation`) runs them over real tables,
where the chase runs them over ``Inst(Q)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..logical.atoms import Atom, RelationalAtom
from ..logical.terms import Constant, Term, Variable, is_variable
from .homomorphism import Homomorphism, _filters_hold
from .symbolic_instance import SymbolicInstance

#: A binding while the steps run: the value of each slot bound so far.
Binding = Tuple[object, ...]


def tuple_getter(positions: Sequence[int]) -> Callable[[Sequence[object]], Tuple]:
    """A function returning the items of its argument at *positions* as a tuple."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions)


@dataclass(frozen=True)
class JoinStep:
    """One step of the compiled plan: probe *atom* using *key_positions*.

    ``key_positions`` are the positions of the atom whose value is known
    before the step runs (constants or variables bound by earlier steps);
    they form the hash key used to probe the row source's index.  Each has
    an entry in ``key_slots``: the slot of its variable, or, for the j-th
    of ``key_constants``, ``width + j`` where ``width`` is the number of
    slots bound before the step.  ``append_positions`` are the row
    positions whose values the step appends, one per variable it binds,
    and ``repeat_checks`` pairs each later occurrence of such a variable
    in the atom with the position that binds it.
    """

    atom: RelationalAtom
    key_positions: Tuple[int, ...]
    key_slots: Tuple[int, ...]
    key_constants: Tuple[Constant, ...]
    append_positions: Tuple[int, ...]
    repeat_checks: Tuple[Tuple[int, int], ...]
    key_of: Callable = field(init=False, repr=False, compare=False)
    pick: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key_of", tuple_getter(self.key_slots))
        object.__setattr__(self, "pick", tuple_getter(self.append_positions))

    def _repeats_hold(self, row) -> bool:
        return all(row[later] == row[first] for later, first in self.repeat_checks)

    def extend(self, source, bindings: Sequence[Binding]) -> List[Binding]:
        """Every extension of *bindings* by a row of *source* matching the atom.

        *source* is the symbolic instance or a set of tables: it answers
        ``index(relation, positions)`` and ``row_form(terms)``, the terms
        with each :class:`Constant` as the value it takes in its rows.
        """
        index = source.index(self.atom.relation, self.key_positions)
        constants = source.row_form(self.key_constants)
        pick = self.pick
        holds = self._repeats_hold if self.repeat_checks else None
        get, key_of = index.get, self.key_of
        if constants:
            keys = [key_of(binding + constants) for binding in bindings]
        else:
            keys = map(key_of, bindings)
        return [
            binding + pick(row)
            for binding, key in zip(bindings, keys)
            for row in get(key, ())
            if holds is None or holds(row)
        ]


class CompiledConjunction:
    """A conjunction of atoms compiled to a pipeline of hash-join probes.

    ``variables`` is the slot layout: the seed variables, then every
    variable of the relational atoms in the order a step binds it.
    """

    def __init__(
        self,
        atoms: Sequence[Atom],
        seed_variables: Sequence[Variable] = (),
    ):
        self.atoms = tuple(atoms)
        self.filters = [a for a in atoms if not isinstance(a, RelationalAtom)]
        self.seed_variables = tuple(dict.fromkeys(seed_variables))
        #: The relational atoms' probes, in execution order.
        self.steps, self.variables = self._compile(self.seed_variables)

    def _compile(
        self, seed_variables: Tuple[Variable, ...]
    ) -> Tuple[Tuple[JoinStep, ...], Tuple[Variable, ...]]:
        """Choose a join order greedily (most-bound atom first) and plan each probe."""
        remaining = [a for a in self.atoms if isinstance(a, RelationalAtom)]
        slots: Dict[Variable, int] = {v: slot for slot, v in enumerate(seed_variables)}
        steps: List[JoinStep] = []
        while remaining:
            best_index = 0
            best_score = -1
            for index, atom in enumerate(remaining):
                score = sum(
                    1
                    for term in atom.terms
                    if not is_variable(term) or term in slots
                )
                # Prefer atoms with more bound positions; break ties by arity
                # (smaller atoms first) to keep intermediate results small.
                if score > best_score or (
                    score == best_score and atom.arity < remaining[best_index].arity
                ):
                    best_score = score
                    best_index = index
            steps.append(self._plan_step(remaining.pop(best_index), slots))
        return tuple(steps), tuple(slots)

    @staticmethod
    def _plan_step(atom: RelationalAtom, slots: Dict[Variable, int]) -> JoinStep:
        """Plan the probe of *atom*; add the variables it binds to *slots*."""
        width = len(slots)
        key_positions: List[int] = []
        key_slots: List[int] = []
        key_constants: List[Constant] = []
        binding_position: Dict[Variable, int] = {}
        repeat_checks: List[Tuple[int, int]] = []
        for position, term in enumerate(atom.terms):
            if not is_variable(term):
                key_positions.append(position)
                key_slots.append(width + len(key_constants))
                key_constants.append(term)
            elif term in slots:
                key_positions.append(position)
                key_slots.append(slots[term])
            elif term in binding_position:
                repeat_checks.append((position, binding_position[term]))
            else:
                binding_position[term] = position
        for variable in binding_position:
            slots[variable] = len(slots)
        return JoinStep(
            atom=atom,
            key_positions=tuple(key_positions),
            key_slots=tuple(key_slots),
            key_constants=tuple(key_constants),
            append_positions=tuple(binding_position.values()),
            repeat_checks=tuple(repeat_checks),
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        instance: SymbolicInstance,
        seeds: Optional[Sequence[Mapping[Variable, Term]]] = None,
        limit: Optional[int] = None,
    ) -> List[Homomorphism]:
        """All homomorphisms of the conjunction into *instance*.

        *seeds* optionally fixes the images of some variables (used for the
        extension/semijoin check); each binds the seed variables the
        conjunction was compiled with.  ``limit`` stops the evaluation early
        once that many results exist (used for existence checks).  The
        conjunction's equalities and inequalities filter the results
        (:func:`~repro.engine.homomorphism._filters_hold`).
        """
        seeded = self.seed_variables
        current: List[Binding] = (
            [tuple(seed[variable] for variable in seeded) for seed in seeds]
            if seeds
            else [()]
        )
        for step in self.steps:
            if not current:
                return []
            current = step.extend(instance, current)
        variables = self.variables
        if not self.filters:
            return [dict(zip(variables, binding)) for binding in current[:limit]]
        results = [
            homomorphism
            for homomorphism in (dict(zip(variables, binding)) for binding in current)
            if _filters_hold(self.filters, homomorphism)
        ]
        return results[:limit]


class JoinTreeHomomorphismFinder:
    """Set-oriented homomorphism finder; interface-compatible with the naive one.

    A pattern is compiled once per set of seeded variables and kept until
    :meth:`clear`.
    """

    def __init__(self):
        self._cache: Dict[
            Tuple[Tuple[Atom, ...], Tuple[Variable, ...]], CompiledConjunction
        ] = {}

    def _compiled(
        self, pattern: Tuple[Atom, ...], seed_variables: Tuple[Variable, ...]
    ) -> CompiledConjunction:
        key = (pattern, seed_variables)
        plan = self._cache.get(key)
        if plan is None:
            plan = CompiledConjunction(pattern, seed_variables)
            self._cache[key] = plan
        return plan

    def clear(self) -> None:
        """Forget every compiled pattern."""
        self._cache.clear()

    def find_all(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> List[Homomorphism]:
        instance = SymbolicInstance.from_atoms(target)
        return self.find_all_in_instance(pattern, instance, seed)

    def find_all_in_instance(
        self,
        pattern: Sequence[Atom],
        instance: SymbolicInstance,
        seed: Optional[Mapping[Variable, Term]] = None,
        limit: Optional[int] = None,
    ) -> List[Homomorphism]:
        plan = self._compiled(tuple(pattern), tuple(seed) if seed else ())
        seeds = [seed] if seed else None
        return plan.evaluate(instance, seeds=seeds, limit=limit)

    def find_one(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> Optional[Homomorphism]:
        instance = SymbolicInstance.from_atoms(target)
        results = self.find_all_in_instance(pattern, instance, seed, limit=1)
        return results[0] if results else None

    def exists(
        self,
        pattern: Sequence[Atom],
        target: Sequence[Atom],
        seed: Optional[Mapping[Variable, Term]] = None,
    ) -> bool:
        return self.find_one(pattern, target, seed) is not None
