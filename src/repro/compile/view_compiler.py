"""Compilation of schema-correspondence views into DEDs.

Paper sections 2.3 and 2.4.  Views are the heart of a MARS configuration:
the correspondence between the public and the proprietary schema is a set of
GAV and LAV views.  To treat both directions uniformly, MARS compiles every
view into constraints:

* a view whose output is a *relation* (e.g. a materialized relational copy
  of some XML data, as STORED would create) becomes the classical pair of
  inclusion dependencies ``cV``/``bV`` relating the defining query's body
  and the view relation;
* a view whose output is an *XML document* (e.g. the published virtual
  document of a GAV mapping, or a cached query answer) requires Skolem
  functions describing the invention of new element nodes.  Each element
  constructor becomes a *graph relation* ``G_view_rule(keys..., node)``
  constrained to be an injective function whose domain is the set of
  bindings of the rule's source query and whose range is wired into the
  GReX encoding of the output document (constraints (5)-(10) of the paper),
  together with the reverse constraints that let client queries over the
  output document be reformulated back onto the sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import CompilationError
from ..logical.atoms import Atom, EqualityAtom, RelationalAtom
from ..logical.dependencies import DED, Disjunct, tgd, view_inclusion_dependencies
from ..logical.terms import Term, Variable
from ..xbind.evaluation import MixedStorage, evaluate_xbind
from ..xbind.query import XBindQuery
from ..xmlmodel.model import XMLDocument, XMLNode
from .grex import GrexSchema
from .xbind_compiler import GrexCompiler


# ----------------------------------------------------------------------
# Relational-output views
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelationalView:
    """A view whose extent is a relation, defined by an XBind query.

    Typical uses: a STORED-style shredded copy of part of an XML document
    (LAV), or a relational cache of a previously answered query.
    """

    name: str
    definition: XBindQuery

    @property
    def arity(self) -> int:
        return len(self.definition.head)

    def compile(self, compiler: GrexCompiler) -> List[DED]:
        """The two inclusion DEDs ``cV`` and ``bV`` of paper section 2.3."""
        used = [v.name for v in self.definition.variables()]
        body, _ = compiler.compile_atoms(self.definition.body, used_names=used)
        return list(view_inclusion_dependencies(self.name, self.definition.head, body))


# ----------------------------------------------------------------------
# XML-output views
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ElementRule:
    """One element constructor of an XML-output view.

    ``keys`` are the variables the constructed element's identity depends on
    (the arguments of the Skolem function); they must be bound by ``body``.
    ``parent`` names the rule constructing the parent element; its keys must
    be a subset of this rule's variables so the edge can be established.
    """

    name: str
    tag: str
    keys: Tuple[Variable, ...]
    body: Tuple[object, ...]
    parent: Optional[str] = None
    text_var: Optional[Variable] = None
    attributes: Tuple[Tuple[str, Variable], ...] = ()
    is_leaf: bool = False

    def __init__(
        self,
        name: str,
        tag: str,
        keys: Sequence[Variable],
        body: Sequence[object],
        parent: Optional[str] = None,
        text_var: Optional[Variable] = None,
        attributes: Union[Mapping[str, Variable], Sequence[Tuple[str, Variable]]] = (),
        is_leaf: bool = False,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "text_var", text_var)
        if isinstance(attributes, Mapping):
            attributes = tuple(attributes.items())
        object.__setattr__(self, "attributes", tuple(attributes))
        object.__setattr__(self, "is_leaf", is_leaf)


@dataclass(frozen=True)
class XMLView:
    """A view whose output is an XML document built by element rules."""

    name: str
    output_document: str
    rules: Tuple[ElementRule, ...]

    def __init__(self, name: str, output_document: str, rules: Sequence[ElementRule]):
        rules = tuple(rules)
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise CompilationError(f"XML view {name}: duplicate rule names")
        roots = [rule for rule in rules if rule.parent is None]
        if len(roots) != 1:
            raise CompilationError(
                f"XML view {name}: exactly one root rule required, found {len(roots)}"
            )
        by_name = {rule.name: rule for rule in rules}
        for rule in rules:
            if rule.parent is not None and rule.parent not in by_name:
                raise CompilationError(
                    f"XML view {name}: rule {rule.name} references unknown parent "
                    f"{rule.parent}"
                )
            if rule.text_var is not None and rule.text_var not in rule.keys:
                raise CompilationError(
                    f"XML view {name}: rule {rule.name}: text variable must be a key"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "output_document", output_document)
        object.__setattr__(self, "rules", rules)

    # ------------------------------------------------------------------
    def rule(self, name: str) -> ElementRule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise CompilationError(f"XML view {self.name}: unknown rule {name}")

    @property
    def root_rule(self) -> ElementRule:
        return next(rule for rule in self.rules if rule.parent is None)

    def children_of(self, name: str) -> List[ElementRule]:
        return [rule for rule in self.rules if rule.parent == name]

    def skolem_relation(self, rule: ElementRule) -> str:
        return f"G_{self.name}_{rule.name}"

    def skolem_atom(self, rule: ElementRule, node: Term) -> RelationalAtom:
        return RelationalAtom(self.skolem_relation(rule), tuple(rule.keys) + (node,))

    # ------------------------------------------------------------------
    def compile(
        self, compiler: GrexCompiler, target_schema: GrexSchema
    ) -> List[DED]:
        """All DEDs describing this view (both directions)."""
        dependencies: List[DED] = []
        for rule in self.rules:
            dependencies.extend(self._compile_rule(rule, compiler, target_schema))
        return dependencies

    def _compile_rule(
        self, rule: ElementRule, compiler: GrexCompiler, target: GrexSchema
    ) -> List[DED]:
        skolem = self.skolem_relation(rule)
        node = Variable(f"_{rule.name}_node")
        node2 = Variable(f"_{rule.name}_node2")
        keys = list(rule.keys)
        keys2 = [Variable(f"_{v.name}_2") for v in keys]
        used = [v.name for v in keys] + [node.name, node2.name]
        dependencies: List[DED] = []

        # (domain, paper (7)): every source binding has a constructed element.
        if rule.body:
            body_atoms, _ = compiler.compile_atoms(rule.body, used_names=used)
        else:
            body_atoms = []
        if body_atoms:
            dependencies.append(
                tgd(f"{skolem}_domain", body_atoms, [self.skolem_atom(rule, node)])
            )

        # (functionality, paper (6)) and (injectivity, paper (5)).
        if keys:
            functional_premise = [
                RelationalAtom(skolem, tuple(keys) + (node,)),
                RelationalAtom(skolem, tuple(keys) + (node2,)),
            ]
            dependencies.append(
                DED(
                    f"{skolem}_functional",
                    functional_premise,
                    [Disjunct([EqualityAtom(node, node2)])],
                )
            )
            injective_premise = [
                RelationalAtom(skolem, tuple(keys) + (node,)),
                RelationalAtom(skolem, tuple(keys2) + (node,)),
            ]
            dependencies.append(
                DED(
                    f"{skolem}_injective",
                    injective_premise,
                    [Disjunct([EqualityAtom(k, k2) for k, k2 in zip(keys, keys2)])],
                )
            )
        else:
            dependencies.append(
                DED(
                    f"{skolem}_functional",
                    [
                        RelationalAtom(skolem, (node,)),
                        RelationalAtom(skolem, (node2,)),
                    ],
                    [Disjunct([EqualityAtom(node, node2)])],
                )
            )

        # (range / structure, paper (8)): the constructed element hangs off its
        # parent in the output document and carries its tag.  As in the
        # paper's constraint (8), the parent element's existence is asserted
        # in the conclusion (``Gitem(x,c) -> exists r Gresult(r) & child(r,c)``).
        structure_conclusion: List[Atom] = [target.tag(node, rule.tag)]
        structure_premise: List[Atom] = [self.skolem_atom(rule, node)]
        if rule.parent is None:
            document_node = Variable("_doc_node")
            structure_conclusion.insert(0, target.child(document_node, node))
            structure_conclusion.insert(0, target.root(document_node))
        else:
            parent_rule = self.rule(rule.parent)
            parent_node = Variable(f"_{parent_rule.name}_pnode")
            structure_conclusion.insert(0, target.child(parent_node, node))
            structure_conclusion.insert(0, self.skolem_atom(parent_rule, parent_node))
        dependencies.append(
            tgd(f"{skolem}_structure", structure_premise, structure_conclusion)
        )

        # (content, paper (9)) and attribute content.
        if rule.text_var is not None:
            dependencies.append(
                tgd(
                    f"{skolem}_text",
                    [self.skolem_atom(rule, node)],
                    [target.text(node, rule.text_var)],
                )
            )
            value = Variable("_text_value")
            dependencies.append(
                DED(
                    f"{skolem}_text_value",
                    [self.skolem_atom(rule, node), target.text(node, value)],
                    [Disjunct([EqualityAtom(value, rule.text_var)])],
                )
            )
        for attribute, variable in rule.attributes:
            dependencies.append(
                tgd(
                    f"{skolem}_attr_{attribute}",
                    [self.skolem_atom(rule, node)],
                    [target.attr(node, attribute, variable)],
                )
            )
            value = Variable(f"_attr_{attribute}_value")
            dependencies.append(
                DED(
                    f"{skolem}_attr_{attribute}_value",
                    [
                        self.skolem_atom(rule, node),
                        target.attr(node, attribute, value),
                    ],
                    [Disjunct([EqualityAtom(value, variable)])],
                )
            )

        # (no invented children, paper (10)): leaves have no proper descendants.
        if rule.is_leaf or not self.children_of(rule.name):
            descendant = Variable("_leaf_desc")
            dependencies.append(
                DED(
                    f"{skolem}_leaf",
                    [self.skolem_atom(rule, node), target.desc(node, descendant)],
                    [Disjunct([EqualityAtom(descendant, node)])],
                )
            )

        # Reverse direction: navigation in the output document is explained by
        # the Skolem graphs and, through them, by the sources.
        if rule.body:
            dependencies.append(
                tgd(f"{skolem}_source", [self.skolem_atom(rule, node)], body_atoms)
            )
        if rule.parent is None:
            document_node = Variable("_doc_node")
            premise = [
                target.root(document_node),
                target.child(document_node, node),
                target.tag(node, rule.tag),
            ]
            dependencies.append(
                tgd(f"{skolem}_reverse", premise, [self.skolem_atom(rule, node)])
            )
        else:
            parent_rule = self.rule(rule.parent)
            parent_node = Variable(f"_{parent_rule.name}_pnode")
            premise = [
                self.skolem_atom(parent_rule, parent_node),
                target.child(parent_node, node),
                target.tag(node, rule.tag),
            ]
            dependencies.append(
                tgd(f"{skolem}_reverse", premise, [self.skolem_atom(rule, node)])
            )
        # When the rule's tag is unique within the view, any element carrying
        # it in the (virtual) output document must be one of the constructed
        # elements: a tag-based reverse constraint.  This lets descendant
        # navigation (``//case``) be explained without knowing the full path
        # from the document root.
        if sum(1 for other in self.rules if other.tag == rule.tag) == 1:
            dependencies.append(
                tgd(
                    f"{skolem}_reverse_tag",
                    [target.tag(node, rule.tag)],
                    [self.skolem_atom(rule, node)],
                )
            )
        return dependencies

    # ------------------------------------------------------------------
    def materialize(self, storage: MixedStorage) -> XMLDocument:
        """Evaluate the view over *storage* and build the output document.

        Used to produce instance data for published documents in tests and
        examples, so that naive execution over the published schema can be
        compared with the execution of reformulations over the proprietary
        storage.
        """
        root_rule = self.root_rule
        nodes: Dict[Tuple[str, Tuple[object, ...]], XMLNode] = {}

        def build_for(rule: ElementRule, parent_lookup: Dict[Tuple[object, ...], XMLNode]):
            query = XBindQuery(
                f"{self.name}_{rule.name}",
                tuple(rule.keys),
                rule.body,
            )
            rows = evaluate_xbind(query, storage) if rule.body else [()]
            created: Dict[Tuple[object, ...], XMLNode] = {}
            for row in rows:
                key = tuple(row)
                if key in created:
                    continue
                values = dict(zip(rule.keys, row))
                node = XMLNode(rule.tag)
                if rule.text_var is not None:
                    node.text = str(values[rule.text_var])
                for attribute, variable in rule.attributes:
                    node.attributes[attribute] = str(values[variable])
                created[key] = node
                if rule.parent is not None:
                    parent_rule = self.rule(rule.parent)
                    parent_key = tuple(
                        values[k] for k in parent_rule.keys if k in values
                    )
                    parent = parent_lookup.get(parent_key)
                    if parent is not None:
                        parent.append(node)
                nodes[(rule.name, key)] = node
            return created

        created_root = build_for(root_rule, {})
        if not created_root:
            root_node = XMLNode(root_rule.tag)
            created_root = {(): root_node}
            nodes[(root_rule.name, ())] = root_node
        # Breadth-first over the rule tree.
        frontier = [root_rule]
        lookups: Dict[str, Dict[Tuple[object, ...], XMLNode]] = {
            root_rule.name: created_root
        }
        while frontier:
            rule = frontier.pop(0)
            for child_rule in self.children_of(rule.name):
                lookups[child_rule.name] = build_for(child_rule, lookups[rule.name])
                frontier.append(child_rule)
        root_node = next(iter(created_root.values()))
        return XMLDocument(self.output_document, root_node)


def identity_xml_view(
    name: str, document: str, published_as: Optional[str] = None
) -> "IdentityView":
    """An identity mapping publishing a proprietary document as-is (IdMap)."""
    return IdentityView(name, document, published_as or document)


@dataclass(frozen=True)
class IdentityView:
    """Publishes a stored XML document unchanged (paper Example 1.1's IdMap).

    Compilation produces, for every GReX relation, the two inclusions between
    the source and target encodings, effectively stating the documents are
    equal node-for-node.  ``published_as`` is the public name of the document
    (it may differ from the stored name).
    """

    name: str
    document: str
    published_as: str

    def compile(self, source: GrexSchema, target: GrexSchema) -> List[DED]:
        from .grex import GREX_ARITIES

        dependencies: List[DED] = []
        for base, arity in GREX_ARITIES.items():
            variables = tuple(Variable(f"v{i}") for i in range(arity))
            source_atom = RelationalAtom(source.relation(base), variables)
            target_atom = RelationalAtom(target.relation(base), variables)
            dependencies.append(
                tgd(f"{self.name}_{base}_fwd", [source_atom], [target_atom])
            )
            dependencies.append(
                tgd(f"{self.name}_{base}_bwd", [target_atom], [source_atom])
            )
        return dependencies
