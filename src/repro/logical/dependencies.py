"""Disjunctive embedded dependencies (DEDs).

A DED has the shape::

    forall x1..xn  premise(x...)  ->  OR_j  exists y_j  conclusion_j(x..., y_j...)

where ``premise`` is a conjunction of relational/equality/inequality atoms
and each ``conclusion_j`` (a :class:`Disjunct`) is a conjunction of
relational and equality atoms over the universal variables plus fresh
existential variables.  Classical embedded dependencies are the special
case with a single disjunct; tuple-generating and equality-generating
dependencies are both representable.

DEDs are the common currency of MARS: compiled views, compiled XML
integrity constraints and the built-in TIX axioms are all DEDs over GReX.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from ..errors import SchemaError
from .atoms import (
    Atom,
    EqualityAtom,
    RelationalAtom,
    atom_variables,
)
from .terms import Term, Variable


@dataclass(frozen=True)
class Disjunct:
    """One disjunct of a DED conclusion: optional existential variables + atoms."""

    atoms: Tuple[Atom, ...]

    def __init__(self, atoms: Sequence[Atom]):
        object.__setattr__(self, "atoms", tuple(atoms))

    def variables(self) -> Tuple[Variable, ...]:
        return atom_variables(self.atoms)

    def relational_atoms(self) -> Tuple[RelationalAtom, ...]:
        return tuple(a for a in self.atoms if isinstance(a, RelationalAtom))

    def equalities(self) -> Tuple[EqualityAtom, ...]:
        return tuple(a for a in self.atoms if isinstance(a, EqualityAtom))

    def substitute(self, mapping: Mapping[Term, Term]) -> "Disjunct":
        return Disjunct(tuple(a.substitute(mapping) for a in self.atoms))

    def __str__(self) -> str:
        return " & ".join(str(a) for a in self.atoms)


@dataclass(frozen=True)
class DED:
    """A disjunctive embedded dependency ``premise -> d1 | d2 | ...``.

    The universal variables are exactly the variables of the premise; any
    other variable occurring in a disjunct is existentially quantified in
    that disjunct.
    """

    name: str
    premise: Tuple[Atom, ...]
    disjuncts: Tuple[Disjunct, ...]

    def __init__(self, name: str, premise: Sequence[Atom], disjuncts: Sequence[Disjunct]):
        premise = tuple(premise)
        disjuncts = tuple(disjuncts)
        if not premise:
            raise SchemaError(f"DED {name}: empty premise")
        if not disjuncts:
            raise SchemaError(f"DED {name}: needs at least one disjunct")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "premise", premise)
        object.__setattr__(self, "disjuncts", disjuncts)

    # ------------------------------------------------------------------
    @property
    def is_disjunctive(self) -> bool:
        return len(self.disjuncts) > 1

    def universal_variables(self) -> Tuple[Variable, ...]:
        return atom_variables(self.premise)

    def existential_variables(self) -> Tuple[Variable, ...]:
        universal = set(self.universal_variables())
        seen: Dict[Variable, None] = {}
        for disjunct in self.disjuncts:
            for variable in disjunct.variables():
                if variable not in universal:
                    seen.setdefault(variable, None)
        return tuple(seen)

    def premise_relational_atoms(self) -> Tuple[RelationalAtom, ...]:
        return tuple(a for a in self.premise if isinstance(a, RelationalAtom))

    def relation_names(self) -> frozenset:
        names = {a.relation for a in self.premise_relational_atoms()}
        for disjunct in self.disjuncts:
            names.update(a.relation for a in disjunct.relational_atoms())
        return frozenset(names)

    def __str__(self) -> str:
        premise_text = " & ".join(str(a) for a in self.premise)
        conclusion_text = " | ".join(f"({d})" for d in self.disjuncts)
        return f"[{self.name}] {premise_text} -> {conclusion_text}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


def tgd(name: str, premise: Sequence[Atom], conclusion: Sequence[Atom]) -> DED:
    """Build a (non-disjunctive) tuple-generating dependency."""
    return DED(name, premise, [Disjunct(conclusion)])


def egd(name: str, premise: Sequence[Atom], left: Term, right: Term) -> DED:
    """Build an equality-generating dependency ``premise -> left = right``."""
    return DED(name, premise, [Disjunct([EqualityAtom(left, right)])])


def view_inclusion_dependencies(
    view_name: str,
    head: Sequence[Variable],
    body: Sequence[Atom],
) -> Tuple[DED, DED]:
    """The two DEDs modelling a conjunctive-query view (paper section 2.3).

    ``cV``: the defining query's result is contained in the view relation.
    ``bV``: every view tuple is witnessed by the defining query's body.
    """
    head = tuple(head)
    view_atom = RelationalAtom(view_name, head)
    containment = tgd(f"c_{view_name}", body, [view_atom])
    backward = tgd(f"b_{view_name}", [view_atom], list(body))
    return containment, backward
