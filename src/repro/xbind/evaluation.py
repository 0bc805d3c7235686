"""Direct (unreformulated) evaluation of XBind queries over mixed storage.

This is the reproduction's stand-in for executing the client query "as is"
with an XQuery engine such as Galax or Enosys (paper section 4.2): a naive
nested-loop evaluation of the path predicates over the published XML
documents, joined with any relational atoms over the relational store.  The
execution-time-savings experiments compare this against executing the MARS
reformulation over the proprietary storage.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..errors import EvaluationError
from ..logical.atoms import EqualityAtom, InequalityAtom, RelationalAtom
from ..logical.terms import Term, Variable, is_variable
from ..storage.relational_db import InMemoryDatabase
from ..xmlmodel.model import XMLDocument, XMLNode
from ..xmlmodel.xpath import evaluate_xpath
from .atoms import PathAtom
from .query import XBindQuery

Value = Union[XMLNode, str, int, float]
Binding = Dict[Variable, Value]


class MixedStorage:
    """A set of named XML documents plus a relational store.

    ``database`` is anything with the relational-store interface
    (``has_table``/``rows``): the default :class:`InMemoryDatabase` or a
    :class:`~repro.storage.backends.StorageBackend`.
    """

    def __init__(
        self,
        documents: Optional[Mapping[str, XMLDocument]] = None,
        database: Optional[object] = None,
    ):
        self.documents: Dict[str, XMLDocument] = dict(documents or {})
        self.database = database if database is not None else InMemoryDatabase()

    def add_document(self, document: XMLDocument) -> None:
        self.documents[document.name] = document

    def document(self, name: str) -> XMLDocument:
        try:
            return self.documents[name]
        except KeyError as error:
            raise EvaluationError(f"unknown document {name!r}") from error

    def single_document(self) -> XMLDocument:
        if len(self.documents) != 1:
            raise EvaluationError(
                "an absolute path atom without a document requires exactly one "
                f"registered document, found {len(self.documents)}"
            )
        return next(iter(self.documents.values()))


def _externalize(value: Value) -> object:
    """Convert a bound value to a comparable output value (nodes -> identities)."""
    if isinstance(value, XMLNode):
        return value.node_id
    return value


def _term_value(term: Term, binding: Binding) -> Value:
    if is_variable(term):
        if term not in binding:
            raise EvaluationError(f"unbound variable {term} in XBind evaluation")
        return binding[term]
    return term.value


def _compatible(existing: Value, candidate: Value) -> bool:
    if isinstance(existing, XMLNode) or isinstance(candidate, XMLNode):
        return existing is candidate
    return existing == candidate


def evaluate_xbind(
    query: XBindQuery,
    storage: MixedStorage,
    distinct: bool = True,
) -> List[Tuple[object, ...]]:
    """Evaluate *query* against *storage*, returning externalized head tuples."""
    bindings: List[Binding] = [{}]
    for atom in query.body:
        if isinstance(atom, PathAtom):
            bindings = _apply_path_atom(atom, bindings, storage)
        elif isinstance(atom, RelationalAtom):
            bindings = _apply_relational_atom(atom, bindings, storage.database)
        elif isinstance(atom, (EqualityAtom, InequalityAtom)):
            continue  # filters applied at the end, once everything is bound
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"unsupported atom in XBind query: {atom!r}")
        if not bindings:
            break

    results: List[Tuple[object, ...]] = []
    seen = set()
    for binding in bindings:
        if not _filters_hold(query, binding):
            continue
        row = tuple(_externalize(_term_value(term, binding)) for term in query.head)
        if distinct:
            if row in seen:
                continue
            seen.add(row)
        results.append(row)
    return results


def _filters_hold(query: XBindQuery, binding: Binding) -> bool:
    for atom in query.filters:
        left = _externalize(_term_value(atom.left, binding))
        right = _externalize(_term_value(atom.right, binding))
        if isinstance(atom, EqualityAtom) and left != right:
            return False
        if isinstance(atom, InequalityAtom) and left == right:
            return False
    return True


def _apply_path_atom(
    atom: PathAtom, bindings: List[Binding], storage: MixedStorage
) -> List[Binding]:
    output: List[Binding] = []
    for binding in bindings:
        if atom.is_absolute:
            document = (
                storage.document(atom.document)
                if atom.document
                else storage.single_document()
            )
            values = evaluate_xpath(atom.path, document)
        else:
            source = binding.get(atom.source) if is_variable(atom.source) else None
            if not isinstance(source, XMLNode):
                raise EvaluationError(
                    f"path atom {atom} requires its source {atom.source} to be "
                    "bound to an element node"
                )
            document = (
                storage.document(atom.document)
                if atom.document
                else _owning_document(source, storage)
            )
            values = evaluate_xpath(atom.path, document, context=source)
        for value in values:
            if is_variable(atom.target):
                existing = binding.get(atom.target)
                if existing is not None and not _compatible(existing, value):
                    continue
                extended = dict(binding)
                extended[atom.target] = value
                output.append(extended)
            else:
                if _externalize(value) == atom.target.value:
                    output.append(dict(binding))
    return output


def _owning_document(node: XMLNode, storage: MixedStorage) -> XMLDocument:
    if node.node_id is not None:
        prefix = node.node_id.split("#", 1)[0]
        if prefix in storage.documents:
            return storage.documents[prefix]
    for document in storage.documents.values():
        ancestor = node
        while ancestor.parent is not None:
            ancestor = ancestor.parent
        if ancestor is document.root:
            return document
    raise EvaluationError("could not determine the document owning a bound node")


def _apply_relational_atom(
    atom: RelationalAtom, bindings: List[Binding], database: object
) -> List[Binding]:
    if not database.has_table(atom.relation):
        raise EvaluationError(f"unknown table {atom.relation!r} in XBind query")
    rows = database.rows(atom.relation)
    output: List[Binding] = []
    for binding in bindings:
        for row in rows:
            if len(row) != atom.arity:
                continue
            extended = dict(binding)
            ok = True
            for term, value in zip(atom.terms, row):
                if is_variable(term):
                    existing = extended.get(term)
                    if existing is None:
                        extended[term] = value
                    elif _externalize(existing) != value:
                        ok = False
                        break
                elif term.value != value:
                    ok = False
                    break
            if ok:
                output.append(extended)
    return output
