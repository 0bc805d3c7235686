"""The XML document model used throughout the reproduction.

MARS treats XML documents as ordered, labelled trees whose nodes carry a
tag, optional attributes, optional text content and a node identity.  The
GReX relational encoding (``root``, ``el``, ``child``, ``desc``, ``tag``,
``attr``, ``id``, ``text``) is a direct image of this model; the
:meth:`XMLDocument.grex_facts` method materialises that encoding, which is
used both by the tests (to validate the compilation) and by the naive XBind
evaluator.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError


class XMLNode:
    """An element node of an XML tree."""

    __slots__ = ("tag", "attributes", "text", "children", "parent", "node_id")

    def __init__(
        self,
        tag: str,
        attributes: Optional[Dict[str, str]] = None,
        text: Optional[str] = None,
    ):
        self.tag = tag
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.text = text
        self.children: List["XMLNode"] = []
        self.parent: Optional["XMLNode"] = None
        self.node_id: Optional[str] = None

    # ------------------------------------------------------------------
    def append(self, child: "XMLNode") -> "XMLNode":
        """Attach *child* as the last child of this node and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def add(self, tag: str, text: Optional[str] = None, **attributes: str) -> "XMLNode":
        """Create a child element, attach it and return it."""
        return self.append(XMLNode(tag, attributes or None, text))

    # ------------------------------------------------------------------
    def descendants(self, include_self: bool = False) -> Iterator["XMLNode"]:
        """Yield descendants in document order."""
        if include_self:
            yield self
        for child in self.children:
            yield child
            yield from child.descendants()

    def ancestors(self, include_self: bool = False) -> Iterator["XMLNode"]:
        node = self if include_self else self.parent
        while node is not None:
            yield node
            node = node.parent

    def find_all(self, tag: str) -> List["XMLNode"]:
        """All descendants (not self) with the given tag, in document order."""
        return [node for node in self.descendants() if node.tag == tag]

    def child_elements(self, tag: Optional[str] = None) -> List["XMLNode"]:
        if tag is None:
            return list(self.children)
        return [child for child in self.children if child.tag == tag]

    def text_content(self) -> str:
        """The concatenation of this node's text and its descendants' text."""
        parts = [self.text] if self.text else []
        for child in self.children:
            parts.append(child.text_content())
        return "".join(part for part in parts if part)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.tag} id={self.node_id}>"


class XMLDocument:
    """A document: a name plus a root element, with stable node identities."""

    def __init__(self, name: str, root: Optional[XMLNode] = None):
        self.name = name
        self.root = root if root is not None else XMLNode("root")
        self._assign_ids()

    # ------------------------------------------------------------------
    def _assign_ids(self) -> None:
        counter = itertools.count()
        for node in self.nodes():
            node.node_id = f"{self.name}#{next(counter)}"

    def nodes(self) -> Iterator[XMLNode]:
        """All element nodes of the document in document order (root first)."""
        yield self.root
        yield from self.root.descendants()

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def find_all(self, tag: str) -> List[XMLNode]:
        """All elements with the given tag, including possibly the root."""
        return [node for node in self.nodes() if node.tag == tag]

    # ------------------------------------------------------------------
    @property
    def document_node_id(self) -> str:
        """Identity of the virtual document node sitting above the root element."""
        return f"{self.name}#doc"

    def grex_facts(self) -> Dict[str, List[Tuple[object, ...]]]:
        """The GReX relational encoding of the document.

        Returns a mapping from (unsuffixed) GReX relation names to lists of
        tuples; node identities are the ``node_id`` strings.  The ``root``
        relation holds a *virtual document node* whose only child is the top
        element, so that absolute paths such as ``/site`` select the top
        element itself.  ``desc`` is the reflexive-transitive closure of
        ``child``, matching the TIX axioms.
        """
        facts: Dict[str, List[Tuple[object, ...]]] = {
            "root": [],
            "el": [],
            "child": [],
            "desc": [],
            "tag": [],
            "attr": [],
            "id": [],
            "text": [],
        }
        document_node = self.document_node_id
        facts["root"].append((document_node,))
        facts["child"].append((document_node, self.root.node_id))
        facts["desc"].append((document_node, document_node))
        for node in self.nodes():
            facts["desc"].append((document_node, node.node_id))
            facts["el"].append((node.node_id,))
            facts["tag"].append((node.node_id, node.tag))
            facts["id"].append((node.node_id, node.node_id))
            if node.text is not None:
                facts["text"].append((node.node_id, node.text))
            for attribute, value in node.attributes.items():
                facts["attr"].append((node.node_id, attribute, value))
            for child in node.children:
                facts["child"].append((node.node_id, child.node_id))
            facts["desc"].append((node.node_id, node.node_id))
            for descendant in node.descendants():
                facts["desc"].append((node.node_id, descendant.node_id))
        return facts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XMLDocument({self.name!r}, {self.node_count()} nodes)"


def build_document(name: str, spec: object) -> XMLDocument:
    """Build a document from a nested-structure specification.

    The specification format is a tuple ``(tag, attrs, text, children)`` where
    ``attrs`` is a dict, ``text`` a string or None and ``children`` a list of
    specifications; shorter tuples are allowed (``(tag,)``, ``(tag, text)``,
    ``(tag, attrs, children)``...).  This keeps test fixtures and synthetic
    workload generators compact.
    """

    def build_node(node_spec: object) -> XMLNode:
        if isinstance(node_spec, XMLNode):
            return node_spec
        if isinstance(node_spec, str):
            return XMLNode(node_spec)
        if not isinstance(node_spec, (tuple, list)) or not node_spec:
            raise SchemaError(f"invalid document specification fragment: {node_spec!r}")
        tag = node_spec[0]
        attributes: Dict[str, str] = {}
        text: Optional[str] = None
        children: Sequence[object] = ()
        for part in node_spec[1:]:
            if isinstance(part, dict):
                attributes = part
            elif isinstance(part, str):
                text = part
            elif isinstance(part, (tuple, list)):
                children = part
            elif part is None:
                continue
            else:
                raise SchemaError(f"invalid document specification part: {part!r}")
        node = XMLNode(tag, attributes or None, text)
        for child_spec in children:
            node.append(build_node(child_spec))
        return node

    return XMLDocument(name, build_node(spec))
