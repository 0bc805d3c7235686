"""Relational logical framework: terms, atoms, queries, dependencies, schemas."""

from .atoms import (
    Atom,
    EqualityAtom,
    InequalityAtom,
    RelationalAtom,
    atom_variables,
    equality_atoms,
    inequality_atoms,
    relational_atoms,
)
from .dependencies import DED, Disjunct, egd, tgd, view_inclusion_dependencies
from .queries import ConjunctiveQuery, make_query
from .schema import ForeignKey, Key, Relation, RelationalSchema
from .terms import Constant, Term, Variable, VariableFactory, const, is_constant, is_variable, var

__all__ = [
    "Atom",
    "Constant",
    "ConjunctiveQuery",
    "DED",
    "Disjunct",
    "EqualityAtom",
    "ForeignKey",
    "InequalityAtom",
    "Key",
    "Relation",
    "RelationalAtom",
    "RelationalSchema",
    "Term",
    "Variable",
    "VariableFactory",
    "atom_variables",
    "const",
    "egd",
    "equality_atoms",
    "inequality_atoms",
    "is_constant",
    "is_variable",
    "make_query",
    "relational_atoms",
    "tgd",
    "var",
    "view_inclusion_dependencies",
]
