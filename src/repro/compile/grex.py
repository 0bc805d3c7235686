"""GReX: the generic relational encoding of XML documents.

Paper section 2.2 defines the schema

    GReX = [root, el, child, desc, tag, attr, id, text]

as a *logical* representation used for reasoning about XQueries -- the data
is not actually stored this way.  Because a MARS configuration involves
several documents (published and proprietary), each document gets its own
copy of the schema; relation names are suffixed with the document name
(``child__case_xml`` and so on), mirroring the paper's ``GReX1``/``GReX2``
notation.

For executing reformulations in the reproduction we *can* materialize the
encoding of a proprietary native-XML document into the in-memory database;
:meth:`GrexSchema.materialize` does exactly that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..engine.shortcut import ClosureSpec
from ..logical.atoms import RelationalAtom
from ..logical.terms import Constant, Term
from ..xmlmodel.model import XMLDocument

GREX_ARITIES: Dict[str, int] = {
    "root": 1,
    "el": 1,
    "child": 2,
    "desc": 2,
    "tag": 2,
    "attr": 3,
    "id": 2,
    "text": 2,
}

GREX_ATTRIBUTES: Dict[str, Tuple[str, ...]] = {
    "root": ("node",),
    "el": ("node",),
    "child": ("parent", "child"),
    "desc": ("ancestor", "descendant"),
    "tag": ("node", "tag"),
    "attr": ("node", "name", "value"),
    "id": ("node", "id"),
    "text": ("node", "value"),
}


def sanitize_document_name(name: str) -> str:
    """Turn a document name into an identifier usable inside relation names."""
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


@dataclass(frozen=True)
class GrexSchema:
    """The GReX relation names for one document."""

    document_name: str

    @property
    def suffix(self) -> str:
        return sanitize_document_name(self.document_name)

    def relation(self, base: str) -> str:
        """The suffixed relation name for *base* (``child`` -> ``child__doc``)."""
        if base not in GREX_ARITIES:
            raise KeyError(f"unknown GReX relation {base!r}")
        return f"{base}__{self.suffix}"

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self.relation(base) for base in GREX_ARITIES)

    def closure_spec(self) -> ClosureSpec:
        """The :class:`ClosureSpec` for this document (used by the chase shortcut)."""
        return ClosureSpec(
            child=self.relation("child"),
            desc=self.relation("desc"),
            el=self.relation("el"),
            root=self.relation("root"),
            tag=self.relation("tag"),
            text=self.relation("text"),
            attr=self.relation("attr"),
            id=self.relation("id"),
        )

    # -- atom constructors -------------------------------------------------
    def root(self, node: Term) -> RelationalAtom:
        return RelationalAtom(self.relation("root"), (node,))

    def el(self, node: Term) -> RelationalAtom:
        return RelationalAtom(self.relation("el"), (node,))

    def child(self, parent: Term, child: Term) -> RelationalAtom:
        return RelationalAtom(self.relation("child"), (parent, child))

    def desc(self, ancestor: Term, descendant: Term) -> RelationalAtom:
        return RelationalAtom(self.relation("desc"), (ancestor, descendant))

    def tag(self, node: Term, tag: Term) -> RelationalAtom:
        if isinstance(tag, str):
            tag = Constant(tag)
        return RelationalAtom(self.relation("tag"), (node, tag))

    def text(self, node: Term, value: Term) -> RelationalAtom:
        return RelationalAtom(self.relation("text"), (node, value))

    def attr(self, node: Term, name: Term, value: Term) -> RelationalAtom:
        if isinstance(name, str):
            name = Constant(name)
        return RelationalAtom(self.relation("attr"), (node, name, value))

    def identity(self, node: Term, value: Term) -> RelationalAtom:
        return RelationalAtom(self.relation("id"), (node, value))

    # -- storage integration -------------------------------------------------
    def materialize(self, document: XMLDocument, store) -> None:
        """Store the document's GReX encoding as tables in *store*.

        This is how native-XML proprietary documents become executable: a
        reformulation whose atoms range over this document's GReX relations
        is evaluated directly against these tables.  *store* is anything
        with the relational-store interface — an
        :class:`~repro.storage.relational_db.InMemoryDatabase` or any
        :class:`~repro.storage.backends.StorageBackend`.
        """
        facts = document.grex_facts()
        for base, rows in facts.items():
            name = self.relation(base)
            if not store.has_table(name):
                store.create_table(name, GREX_ARITIES[base], GREX_ATTRIBUTES[base])
            else:
                store.clear_table(name)
            store.insert_many(name, rows)


def closure_specs(schemas: Iterable[GrexSchema]) -> Tuple[ClosureSpec, ...]:
    """Convenience: the closure specs of several documents."""
    return tuple(schema.closure_spec() for schema in schemas)
