"""Symbolic database instances built from query bodies.

The key observation behind the new C&B implementation (paper section 3.1,
following Popa's thesis) is that chasing a query ``Q`` with a constraint
``c`` can be viewed as *evaluating a relational query obtained from c over a
small database obtained from Q*.  The "small database" is the symbolic
instance ``Inst(Q)``: its constants are the terms of ``Q`` and its tuples
are the relational atoms of ``Q``'s body.

:class:`SymbolicInstance` stores those tuples indexed by relation name and
maintains hash indexes on demand, so that the join-tree evaluator can probe
them like a hash join would.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..logical.atoms import Atom, RelationalAtom
from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Term

SymbolicRow = Tuple[Term, ...]


class SymbolicInstance:
    """The canonical database ``Inst(Q)`` of a conjunctive query body."""

    def __init__(self, atoms: Iterable[RelationalAtom] = ()):
        self._relations: Dict[str, List[SymbolicRow]] = {}
        self._row_sets: Dict[str, set] = {}
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Dict[Tuple[Term, ...], List[SymbolicRow]]] = {}
        for atom in atoms:
            self.add_atom(atom)

    @classmethod
    def from_query(cls, query: ConjunctiveQuery) -> "SymbolicInstance":
        return cls(query.relational_body)

    @classmethod
    def from_atoms(cls, atoms: Sequence[Atom]) -> "SymbolicInstance":
        return cls(a for a in atoms if isinstance(a, RelationalAtom))

    # ------------------------------------------------------------------
    def add_atom(self, atom: RelationalAtom) -> bool:
        """Insert the tuple for *atom*; return False when it was already present."""
        rows = self._relations.setdefault(atom.relation, [])
        row_set = self._row_sets.setdefault(atom.relation, set())
        if atom.terms in row_set:
            return False
        rows.append(atom.terms)
        row_set.add(atom.terms)
        # Keep existing indexes for this relation in sync.
        for (relation, positions), index in self._indexes.items():
            if relation == atom.relation:
                key = tuple(atom.terms[p] for p in positions)
                index.setdefault(key, []).append(atom.terms)
        return True

    def contains_atom(self, atom: RelationalAtom) -> bool:
        return atom.terms in self._row_sets.get(atom.relation, set())

    def rows(self, relation: str) -> List[SymbolicRow]:
        return self._relations.get(relation, [])

    def cardinality(self, relation: str) -> int:
        return len(self._relations.get(relation, ()))

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    # ------------------------------------------------------------------
    def index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Term, ...], List[SymbolicRow]]:
        """A hash index of *relation* on *positions*, built lazily and maintained."""
        key = (relation, positions)
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        index: Dict[Tuple[Term, ...], List[SymbolicRow]] = {}
        for row in self._relations.get(relation, ()):  # build once
            index.setdefault(tuple(row[p] for p in positions), []).append(row)
        self._indexes[key] = index
        return index

    @staticmethod
    def row_form(terms: Tuple[Term, ...]) -> Tuple[Term, ...]:
        """A pattern's constants are themselves values of ``Inst(Q)``."""
        return terms

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    def __str__(self) -> str:
        parts = ", ".join(f"{name}:{len(rows)}" for name, rows in self._relations.items())
        return f"SymbolicInstance[{parts}]"
