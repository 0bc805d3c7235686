"""Conjunctive queries.

A :class:`ConjunctiveQuery` is the workhorse object of the whole system: the
compilation of XBind queries produces one, the chase rewrites one, the
backchase enumerates subqueries of one, and the in-memory engine evaluates
one against a database.

Queries are immutable; every transformation returns a new object.  What an
engine derives from a query before running it is kept beside it, outside
its identity (:class:`DerivedPlan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Sequence,
    Tuple, TypeVar,
)

from ..errors import SchemaError
from .atoms import (
    Atom,
    EqualityAtom,
    InequalityAtom,
    RelationalAtom,
    atom_variables,
    relational_atoms,
)
from .terms import (
    Constant,
    Term,
    Variable,
    VariableFactory,
    is_variable,
    merge_equal_terms,
)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``name(head) :- body`` with optional inequalities.

    ``head`` is a tuple of terms (usually variables, constants allowed).
    ``body`` may contain relational, equality and inequality atoms.  The
    query is *safe* when every head variable occurs in some relational atom
    of the body or is equated (transitively) to one that does.
    """

    name: str
    head: Tuple[Term, ...]
    body: Tuple[Atom, ...]

    def __init__(self, name: str, head: Sequence[Term], body: Sequence[Atom]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", tuple(head))
        object.__setattr__(self, "body", tuple(body))

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def relational_body(self) -> Tuple[RelationalAtom, ...]:
        """The relational atoms of the body, in order."""
        return relational_atoms(self.body)

    @property
    def equalities(self) -> Tuple[EqualityAtom, ...]:
        return tuple(a for a in self.body if isinstance(a, EqualityAtom))

    @property
    def inequalities(self) -> Tuple[InequalityAtom, ...]:
        return tuple(a for a in self.body if isinstance(a, InequalityAtom))

    def head_variables(self) -> Tuple[Variable, ...]:
        """Head terms that are variables, de-duplicated, in order."""
        seen: Dict[Variable, None] = {}
        for item in self.head:
            if is_variable(item):
                seen.setdefault(item, None)
        return tuple(seen)

    def variables(self) -> Tuple[Variable, ...]:
        """All variables of the query (head first, then body), de-duplicated."""
        seen: Dict[Variable, None] = {}
        for item in self.head:
            if is_variable(item):
                seen.setdefault(item, None)
        for variable in atom_variables(self.body):
            seen.setdefault(variable, None)
        return tuple(seen)

    def body_variables(self) -> Tuple[Variable, ...]:
        return atom_variables(self.body)

    def existential_variables(self) -> Tuple[Variable, ...]:
        """Body variables that do not occur in the head."""
        head_vars = set(self.head_variables())
        return tuple(v for v in self.body_variables() if v not in head_vars)

    def constants(self) -> Tuple[Constant, ...]:
        seen: Dict[Constant, None] = {}
        for item in self.head:
            if not is_variable(item):
                seen.setdefault(item, None)
        for atom in self.relational_body:
            for value in atom.constants():
                seen.setdefault(value, None)
        return tuple(seen)

    def relation_names(self) -> FrozenSet[str]:
        """The set of relation names mentioned in the body."""
        return frozenset(a.relation for a in self.relational_body)

    def is_safe(self) -> bool:
        """Check range-restriction: every head variable appears in the body."""
        body_vars = set(self.body_variables())
        return all(v in body_vars for v in self.head_variables())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[Term, Term]) -> "ConjunctiveQuery":
        """Apply *mapping* to head and body, dropping trivial equalities."""
        new_head = tuple(mapping.get(item, item) for item in self.head)
        new_body = []
        for atom in self.body:
            replaced = atom.substitute(mapping)
            if isinstance(replaced, EqualityAtom) and replaced.is_trivial():
                continue
            new_body.append(replaced)
        return ConjunctiveQuery(self.name, new_head, new_body)

    def with_body(self, body: Sequence[Atom]) -> "ConjunctiveQuery":
        """Return a copy with the body replaced (same name and head)."""
        return ConjunctiveQuery(self.name, self.head, body)

    def with_name(self, name: str) -> "ConjunctiveQuery":
        return ConjunctiveQuery(name, self.head, self.body)

    def add_atoms(self, atoms: Iterable[Atom]) -> "ConjunctiveQuery":
        """Return a copy with *atoms* appended to the body (duplicates skipped)."""
        existing = set(self.body)
        new_body = list(self.body)
        for atom in atoms:
            if atom not in existing:
                new_body.append(atom)
                existing.add(atom)
        return ConjunctiveQuery(self.name, self.head, new_body)

    def dedupe(self) -> "ConjunctiveQuery":
        """Remove duplicate body atoms while preserving first-occurrence order."""
        seen = set()
        new_body = []
        for atom in self.body:
            if atom not in seen:
                new_body.append(atom)
                seen.add(atom)
        return ConjunctiveQuery(self.name, self.head, new_body)

    def subquery(self, atoms: Sequence[RelationalAtom]) -> "ConjunctiveQuery":
        """The subquery induced by *atoms*: same head, body restricted to them.

        Inequality atoms whose variables are still covered are retained, as
        they only filter results and are required for equivalence with the
        original query.
        """
        kept = set(atoms)
        covered = set(atom_variables(tuple(atoms)))
        new_body = []
        for atom in self.body:
            if isinstance(atom, RelationalAtom):
                if atom in kept:
                    new_body.append(atom)
            else:
                if all(v in covered for v in atom.variables()):
                    new_body.append(atom)
        return ConjunctiveQuery(self.name, self.head, new_body)

    def rename_apart(
        self, factory: Optional[VariableFactory] = None, avoid: Iterable[str] = ()
    ) -> Tuple["ConjunctiveQuery", Dict[Variable, Variable]]:
        """Rename all variables to fresh ones; return the query and the mapping."""
        if factory is None:
            factory = VariableFactory(prefix="_r", used=avoid)
        mapping: Dict[Variable, Variable] = {}
        for variable in self.variables():
            mapping[variable] = factory.fresh()
        renamed = self.substitute(mapping)
        return renamed, mapping

    def normalize_equalities(self) -> "ConjunctiveQuery":
        """Eliminate equality atoms by collapsing the terms they equate.

        Each class of equated terms becomes one term, chosen by
        :func:`~repro.logical.terms.merge_equal_terms` (a constant, else a
        head variable).  An equality between two distinct constants makes
        the query unsatisfiable; the compilation never generates such
        queries, so a :class:`SchemaError` is raised.
        """
        equalities = [
            (atom.left, atom.right) for atom in self.body if isinstance(atom, EqualityAtom)
        ]
        if not equalities:
            return self
        mapping = merge_equal_terms(equalities, set(self.head_variables()))
        if mapping is None:
            raise SchemaError(f"{self.name} equates two distinct constants")
        collapsed = self.substitute(mapping)
        body = [a for a in collapsed.body if not isinstance(a, EqualityAtom)]
        return ConjunctiveQuery(self.name, collapsed.head, body).dedupe()

    # ------------------------------------------------------------------
    # Derived artifacts
    # ------------------------------------------------------------------
    def derived(self) -> "DerivedPlan":
        """This query's :class:`DerivedPlan`, built on first use and kept."""
        record = self.__dict__.get("_derived")
        if record is None:
            record = DerivedPlan(self)
            object.__setattr__(self, "_derived", record)
        return record

    def __getstate__(self) -> Dict[str, object]:
        # The record holds compiled closures; a copy derives its own.
        state = dict(self.__dict__)
        state.pop("_derived", None)
        return state

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        head_args = ", ".join(str(item) for item in self.head)
        body_text = ", ".join(str(item) for item in self.body)
        return f"{self.name}({head_args}) :- {body_text}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


_Artifact = TypeVar("_Artifact")


class DerivedPlan:
    """What engines derive from one plan before running it, kept with it.

    A plan's fields are normative: they alone fix ``==``, ``hash``, its
    canonical identity and the plan store's on-disk form.  What an engine
    computes from them is derived: the equality-normalized body, the join
    kernel's compiled steps, the rendered SQL and the columns it indexes,
    a routing decision.  :meth:`ConjunctiveQuery.derived` keeps those
    here, so a plan served again derives none of them.  The record is
    built the first time a plan is served and lives exactly as long as
    the plan object does: the plan cache that holds a plan bounds its
    record, and a plan loaded from the store starts without one.

    An artifact that depends on engine state (column names, statistics,
    the shard layout) sits in a slot under the key of that state; asked
    for under another key, it is rebuilt (:meth:`derive`).
    """

    __slots__ = ("normalized", "relations", "_slots")

    def __init__(self, plan: ConjunctiveQuery):
        normalized = plan.normalize_equalities()
        if normalized is plan:
            # An equal copy: the plan holds this record, and a record
            # holding the plan would be a cycle that outlives eviction
            # from the plan cache until the cyclic collector runs.
            normalized = ConjunctiveQuery(plan.name, plan.head, plan.body)
        #: The plan with its equalities collapsed (what every engine runs).
        self.normalized = normalized
        #: The relations the body reads, once each, in body order.
        self.relations: Tuple[str, ...] = tuple(
            dict.fromkeys(atom.relation for atom in normalized.relational_body)
        )
        self._slots: Dict[Hashable, Tuple[object, object]] = {}

    def derive(
        self,
        slot: Hashable,
        key: object,
        build: Callable[..., _Artifact],
        *args: object,
    ) -> _Artifact:
        """The artifact in *slot*, built as ``build(*args)`` unless the slot
        already holds one derived under a key equal to *key*.

        Concurrent first uses may each build; the artifacts are equal and
        the last one stays.
        """
        entry = self._slots.get(slot)
        if entry is not None and entry[0] == key:
            return entry[1]
        artifact = build(*args)
        self._slots[slot] = (key, artifact)
        return artifact


def make_query(
    name: str,
    head: Sequence[Term],
    body: Sequence[Atom],
) -> ConjunctiveQuery:
    """Build a conjunctive query and validate its safety."""
    query = ConjunctiveQuery(name, head, body)
    if not query.is_safe():
        missing = [
            str(v) for v in query.head_variables() if v not in set(query.body_variables())
        ]
        raise SchemaError(f"unsafe query {name}: head variables {missing} not in body")
    return query
