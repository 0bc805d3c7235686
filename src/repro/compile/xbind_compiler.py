"""Compilation of XBind queries into conjunctive queries over GReX.

Paper section 2.2 (i): each client XBind query -- the navigational part
of the paper's XQuery -- is compiled into a relational conjunctive query
(with inequalities) over the GReX schema by a straightforward syntax-directed
translation of its path atoms.  The same translation is reused to compile
XICs and view definitions, so it lives in a reusable :class:`GrexCompiler`.

The translation of one path step:

====================  =====================================================
step                  atoms produced (``cur`` is the context node)
====================  =====================================================
``/name``             ``child(cur, n), tag(n, 'name')``
``//name``            ``desc(cur, n), tag(n, 'name')``
``/*`` / ``//*``      ``child(cur, n)`` / ``desc(cur, n)``
``/text()``           ``text(cur, value)``
``//text()``          ``desc(cur, n), text(n, value)``
``/@a``               ``attr(cur, 'a', value)``
``//@a``              ``desc(cur, n), attr(n, 'a', value)``
====================  =====================================================

Absolute paths start from a fresh variable bound by the document's ``root``
relation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import CompilationError
from ..logical.atoms import Atom, EqualityAtom, InequalityAtom, RelationalAtom
from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Term, Variable, VariableFactory, is_variable
from ..xbind.atoms import PathAtom
from ..xbind.query import XBindQuery
from ..xmlmodel.xpath import Axis, NodeTestKind, Step
from .grex import GrexSchema


class GrexCompiler:
    """Compiles XBind queries, XICs and view bodies to atoms over GReX."""

    def __init__(
        self,
        schemas: Mapping[str, GrexSchema],
        default_document: Optional[str] = None,
    ):
        self.schemas: Dict[str, GrexSchema] = dict(schemas)
        if default_document is None and len(self.schemas) == 1:
            default_document = next(iter(self.schemas))
        self.default_document = default_document

    # ------------------------------------------------------------------
    def schema_for(self, document: Optional[str]) -> GrexSchema:
        name = document or self.default_document
        if name is None:
            raise CompilationError(
                "an absolute path atom needs a document (several documents are "
                "registered and no default was chosen)"
            )
        try:
            return self.schemas[name]
        except KeyError as error:
            raise CompilationError(f"unknown document {name!r}") from error

    # ------------------------------------------------------------------
    def compile_xbind(self, query: XBindQuery) -> ConjunctiveQuery:
        """Compile an XBind query to a conjunctive query over GReX."""
        atoms, _ = self.compile_atoms(query.body, used_names=[v.name for v in query.variables()])
        return ConjunctiveQuery(query.name, query.head, atoms)

    def compile_atoms(
        self,
        body: Sequence[object],
        used_names: Sequence[str] = (),
        variable_documents: Optional[Dict[Variable, str]] = None,
    ) -> Tuple[List[Atom], Dict[Variable, str]]:
        """Compile a mixed body (path / relational / filter atoms) to GReX atoms.

        Returns the compiled atoms and the mapping from element-valued
        variables to the document they navigate, which the view compiler
        needs.
        """
        factory = VariableFactory(prefix="_n", used=used_names)
        documents: Dict[Variable, str] = dict(variable_documents or {})
        compiled: List[Atom] = []
        pending = list(body)
        progressed = True
        while pending and progressed:
            progressed = False
            remaining = []
            for atom in pending:
                if isinstance(atom, PathAtom):
                    resolved = self._resolve_document(atom, documents)
                    if resolved is None:
                        remaining.append(atom)
                        continue
                    compiled.extend(
                        self._compile_path_atom(atom, resolved, documents, factory)
                    )
                elif isinstance(atom, (RelationalAtom, EqualityAtom, InequalityAtom)):
                    compiled.append(atom)
                else:
                    raise CompilationError(f"cannot compile atom {atom!r}")
                progressed = True
            pending = remaining
        if pending:
            raise CompilationError(
                "could not resolve the document of path atoms "
                f"{[str(a) for a in pending]}; bind their source variables first "
                "or set the atom's document explicitly"
            )
        return compiled, documents

    # ------------------------------------------------------------------
    def _resolve_document(
        self, atom: PathAtom, documents: Dict[Variable, str]
    ) -> Optional[str]:
        if atom.document:
            return atom.document
        if atom.is_absolute:
            return self.default_document or (
                next(iter(self.schemas)) if len(self.schemas) == 1 else None
            )
        source = atom.source
        if is_variable(source) and source in documents:
            return documents[source]
        if len(self.schemas) == 1:
            return next(iter(self.schemas))
        return None

    def _compile_path_atom(
        self,
        atom: PathAtom,
        document: str,
        documents: Dict[Variable, str],
        factory: VariableFactory,
    ) -> List[RelationalAtom]:
        schema = self.schema_for(document)
        atoms: List[RelationalAtom] = []
        if atom.is_absolute:
            current: Term = factory.fresh("r")
            atoms.append(schema.root(current))
        else:
            current = atom.source
        if is_variable(current):
            documents.setdefault(current, document)
        steps = atom.path.steps
        if not steps:
            raise CompilationError(f"path atom {atom} has no steps")
        for index, step in enumerate(steps):
            is_last = index == len(steps) - 1
            current = self._compile_step(
                schema, step, current, atom.target if is_last else None, atoms, factory
            )
            if is_variable(current):
                documents.setdefault(current, document)
        return atoms

    def _compile_step(
        self,
        schema: GrexSchema,
        step: Step,
        current: Term,
        bind_to: Optional[Term],
        atoms: List[RelationalAtom],
        factory: VariableFactory,
    ) -> Term:
        """Compile one path step; return the new context term."""
        if step.kind is NodeTestKind.TEXT:
            target = bind_to if bind_to is not None else factory.fresh("t")
            if step.axis is Axis.DESCENDANT:
                node = factory.fresh("d")
                atoms.append(schema.desc(current, node))
                atoms.append(schema.text(node, target))
            else:
                atoms.append(schema.text(current, target))
            return target
        if step.kind is NodeTestKind.ATTRIBUTE:
            target = bind_to if bind_to is not None else factory.fresh("a")
            if step.axis is Axis.DESCENDANT:
                node = factory.fresh("d")
                atoms.append(schema.desc(current, node))
                atoms.append(schema.attr(node, step.name, target))
            else:
                atoms.append(schema.attr(current, step.name, target))
            return target
        # element steps (name test or wildcard)
        target = bind_to if bind_to is not None else factory.fresh("e")
        if step.axis is Axis.DESCENDANT:
            atoms.append(schema.desc(current, target))
        else:
            atoms.append(schema.child(current, target))
        if step.kind is NodeTestKind.NAME:
            atoms.append(schema.tag(target, step.name))
        return target
