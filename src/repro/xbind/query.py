"""XBind queries: the navigation part of XQueries, in conjunctive-query form.

Paper section 2.1 introduces XBind queries as the internal notation for the
navigation/binding phase of an XQuery: a head returning a tuple of
variables, and a body of path predicates, relational atoms and
(in)equalities.  Client queries, views and integrity constraints are all
expressed with the same kind of bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..errors import SchemaError
from ..logical.atoms import EqualityAtom, InequalityAtom, RelationalAtom
from ..logical.terms import Term, Variable, is_variable

from .atoms import PathAtom

XBindAtom = Union[PathAtom, RelationalAtom, EqualityAtom, InequalityAtom]


@dataclass(frozen=True)
class XBindQuery:
    """A conjunctive query whose body may contain XPath-defined predicates."""

    name: str
    head: Tuple[Term, ...]
    body: Tuple[XBindAtom, ...]

    def __init__(self, name: str, head: Sequence[Term], body: Sequence[XBindAtom]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", tuple(head))
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "_fingerprint", None)
        object.__setattr__(self, "_fingerprint_digest", None)

    # ------------------------------------------------------------------
    @property
    def path_atoms(self) -> Tuple[PathAtom, ...]:
        return tuple(a for a in self.body if isinstance(a, PathAtom))

    @property
    def relational_atoms(self) -> Tuple[RelationalAtom, ...]:
        return tuple(a for a in self.body if isinstance(a, RelationalAtom))

    @property
    def filters(self) -> Tuple[Union[EqualityAtom, InequalityAtom], ...]:
        return tuple(
            a for a in self.body if isinstance(a, (EqualityAtom, InequalityAtom))
        )

    def head_variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for item in self.head:
            if is_variable(item):
                seen.setdefault(item, None)
        return tuple(seen)

    def variables(self) -> Tuple[Variable, ...]:
        seen: Dict[Variable, None] = {}
        for item in self.head:
            if is_variable(item):
                seen.setdefault(item, None)
        for atom in self.body:
            for variable in atom.variables():
                seen.setdefault(variable, None)
        return tuple(seen)

    def is_safe(self) -> bool:
        body_variables = set()
        for atom in self.body:
            body_variables.update(atom.variables())
        return all(v in body_variables for v in self.head_variables())

    def documents(self) -> Tuple[str, ...]:
        """Names of the documents explicitly referenced by absolute path atoms."""
        seen: Dict[str, None] = {}
        for atom in self.path_atoms:
            if atom.document:
                seen.setdefault(atom.document, None)
        return tuple(seen)

    # ------------------------------------------------------------------
    def fingerprint(self) -> Tuple:
        """A hashable structural key for this query, modulo variable names.

        Variables are numbered by first occurrence (head first, then body in
        order), so two queries that differ only in variable naming — or in
        the query name — share a fingerprint.  The plan cache of the
        publishing service keys reformulations on this, letting repeated
        client queries skip the C&B engine entirely.

        Computed once and cached: the query is frozen, and both the plan
        cache and the cost-feedback recorder ask for it on every publish.
        """
        cached = self._fingerprint
        if cached is not None:
            return cached
        numbering: Dict[Variable, int] = {}

        def term_key(item: Optional[Term]) -> Optional[Tuple]:
            if item is None:
                return None
            if is_variable(item):
                index = numbering.get(item)
                if index is None:
                    index = numbering[item] = len(numbering)
                return ("v", index)
            return ("c", type(item.value).__name__, item.value)

        head = tuple(term_key(item) for item in self.head)
        body = []
        for atom in self.body:
            if isinstance(atom, PathAtom):
                body.append(
                    (
                        "path",
                        str(atom.path),
                        atom.document,
                        term_key(atom.source),
                        term_key(atom.target),
                    )
                )
            elif isinstance(atom, RelationalAtom):
                body.append(
                    ("rel", atom.relation, tuple(term_key(t) for t in atom.terms))
                )
            elif isinstance(atom, EqualityAtom):
                body.append(("eq", term_key(atom.left), term_key(atom.right)))
            elif isinstance(atom, InequalityAtom):
                body.append(("neq", term_key(atom.left), term_key(atom.right)))
            else:  # future atom kinds: fall back to their repr
                body.append(("atom", repr(atom)))
        result = (head, tuple(body))
        object.__setattr__(self, "_fingerprint", result)
        return result

    def fingerprint_digest(self) -> str:
        """The fingerprint as a stable hex digest (SHA-256 of stable JSON).

        The raw :meth:`fingerprint` tuple is an in-process cache key; its
        ``repr`` and pickle forms are incidental and drift across
        refactors.  The digest is the durable string form: plan-artifact
        filenames, audit entries and any label that must survive a
        restart key on this.  Memoized like the fingerprint itself.
        """
        cached = self._fingerprint_digest
        if cached is not None:
            return cached
        # Imported lazily: repro.plan imports this module to decode
        # canonical artifacts back into XBind queries.
        from ..plan.identity import fingerprint_digest

        digest = fingerprint_digest(self.fingerprint())
        object.__setattr__(self, "_fingerprint_digest", digest)
        return digest

    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[Term, Term]) -> "XBindQuery":
        head = tuple(mapping.get(item, item) for item in self.head)
        body = tuple(atom.substitute(mapping) for atom in self.body)
        return XBindQuery(self.name, head, body)

    def with_name(self, name: str) -> "XBindQuery":
        return XBindQuery(name, self.head, self.body)

    def add_atoms(self, atoms: Sequence[XBindAtom]) -> "XBindQuery":
        return XBindQuery(self.name, self.head, tuple(self.body) + tuple(atoms))

    def __str__(self) -> str:
        head_text = ", ".join(str(item) for item in self.head)
        body_text = ", ".join(str(atom) for atom in self.body)
        return f"{self.name}({head_text}) :- {body_text}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


def make_xbind(
    name: str, head: Sequence[Term], body: Sequence[XBindAtom]
) -> XBindQuery:
    """Build an XBind query and check its safety."""
    query = XBindQuery(name, head, body)
    if not query.is_safe():
        raise SchemaError(f"unsafe XBind query {name}: head variable not bound in body")
    return query
