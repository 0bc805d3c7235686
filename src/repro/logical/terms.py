"""Terms of the relational logical framework: variables and constants.

The chase, backchase and containment machinery all manipulate *terms*.  A
term is either a :class:`Variable` or a :class:`Constant`.  Both are
immutable and hashable so they can be used freely as dictionary keys and
set members, which the homomorphism-finding code relies on heavily.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, Optional, Tuple, Union


@dataclass(frozen=True, order=True)
class Variable:
    """A logical variable, identified by its name."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"?{self.name}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant:
    """A constant value (string or number) appearing in a query or tuple."""

    value: Union[str, int, float]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"'{self.value}'"

    def __str__(self) -> str:
        return str(self.value)


Term = Union[Variable, Constant]


def is_variable(term: Term) -> bool:
    """Return ``True`` when *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """Return ``True`` when *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def term(value: Union[Term, str, int, float]) -> Term:
    """Coerce *value* into a term.

    Strings are treated as variable names; to build a string constant use
    :class:`Constant` explicitly or :func:`const`.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str):
        return Variable(value)
    return Constant(value)


def var(name: str) -> Variable:
    """Convenience constructor for a variable."""
    return Variable(name)


def const(value: Union[str, int, float]) -> Constant:
    """Convenience constructor for a constant."""
    return Constant(value)


class VariableFactory:
    """Generates globally fresh variables.

    The chase introduces existentially quantified variables whose names must
    not clash with any variable already present in the query being chased.
    A :class:`VariableFactory` hands out names with a fixed prefix and a
    monotonically increasing counter; the caller seeds it with the names
    already in use.
    """

    def __init__(self, prefix: str = "_v", used: Iterable[str] = ()):
        self._prefix = prefix
        self._used = set(used)
        self._counter = itertools.count()

    def reserve(self, names: Iterable[str]) -> None:
        """Mark *names* as already in use."""
        self._used.update(names)

    def fresh(self, hint: str = "") -> Variable:
        """Return a variable whose name has never been handed out before."""
        while True:
            index = next(self._counter)
            name = f"{self._prefix}{hint}{index}"
            if name not in self._used:
                self._used.add(name)
                return Variable(name)


def merge_equal_terms(
    pairs: Iterable[Tuple[Term, Term]], keep: Collection[Term] = ()
) -> Optional[Dict[Term, Term]]:
    """The substitution collapsing the two terms of each pair into one.

    The pairs join classes of equal terms (union-find).  When a pair joins
    two classes, the joined class is represented by a constant if either
    representative is one, else by the right one if it is in *keep* (the
    head variables a query must not lose), else by the left one.  The
    substitution maps every other member of a class to its representative;
    it is ``None`` when a class holds two distinct constants.  Collapsing a
    query's equalities and every equality a chase step adds use this one
    merge.
    """
    parent: Dict[Term, Term] = {}

    def find(item: Term) -> Term:
        root = item
        while root in parent:
            root = parent[root]
        while item != root:
            parent[item], item = root, parent[item]
        return root

    for left, right in pairs:
        left, right = find(left), find(right)
        if left == right:
            continue
        if isinstance(left, Constant):
            if isinstance(right, Constant):
                return None
        elif isinstance(right, Constant) or right in keep:
            left, right = right, left
        parent[right] = left
    return {item: find(item) for item in parent}
