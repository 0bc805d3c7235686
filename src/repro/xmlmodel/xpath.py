"""A small XPath fragment: parsing, representation and evaluation.

MARS expresses navigation with XPath predicates inside XBind queries and
XICs (paper section 2.1).  The fragment supported here covers what the
paper's examples and experiments use:

* absolute paths (``/site/people``), descendant shortcuts (``//person``),
* relative paths starting at a context node (``./name/last``),
* name tests and the wildcard ``*``,
* ``text()`` steps and attribute steps (``@id``).

The compilation of a path into GReX atoms lives in
:mod:`repro.compile.xbind_compiler`; this module only knows how to parse a
path and how to evaluate it directly against an :class:`XMLDocument`, which
is what the naive (unreformulated) query execution uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import ParseError
from .model import XMLDocument, XMLNode


class Axis(Enum):
    """The navigation axes of the supported fragment."""

    CHILD = "child"
    DESCENDANT = "descendant"


class NodeTestKind(Enum):
    """What a step selects once the axis has been traversed."""

    NAME = "name"
    WILDCARD = "wildcard"
    TEXT = "text"
    ATTRIBUTE = "attribute"


@dataclass(frozen=True)
class Step:
    """One step of a path: an axis plus a node test."""

    axis: Axis
    kind: NodeTestKind
    name: Optional[str] = None

    def __str__(self) -> str:
        prefix = "//" if self.axis is Axis.DESCENDANT else "/"
        if self.kind is NodeTestKind.TEXT:
            return f"{prefix}text()"
        if self.kind is NodeTestKind.ATTRIBUTE:
            return f"{prefix}@{self.name}"
        if self.kind is NodeTestKind.WILDCARD:
            return f"{prefix}*"
        return f"{prefix}{self.name}"


@dataclass(frozen=True)
class XPath:
    """A parsed path: absolute (from the document root) or relative."""

    steps: Tuple[Step, ...]
    absolute: bool

    def __str__(self) -> str:
        text = "".join(str(step) for step in self.steps)
        if self.absolute:
            return text if text else "/"
        return "." + text

    @property
    def returns_value(self) -> bool:
        """True when the path ends in ``text()`` or an attribute step."""
        if not self.steps:
            return False
        return self.steps[-1].kind in (NodeTestKind.TEXT, NodeTestKind.ATTRIBUTE)


def parse_xpath(source: str) -> XPath:
    """Parse *source* into an :class:`XPath`; raise :class:`ParseError` if invalid."""
    text = source.strip()
    if not text:
        raise ParseError("empty XPath expression")
    absolute = True
    if text.startswith("."):
        absolute = False
        text = text[1:]
    elif not text.startswith("/"):
        # A bare name such as ``author`` is a relative child step.
        absolute = False
        text = "/" + text
    steps: List[Step] = []
    position = 0
    while position < len(text):
        if text.startswith("//", position):
            axis = Axis.DESCENDANT
            position += 2
        elif text.startswith("/", position):
            axis = Axis.CHILD
            position += 1
        else:
            raise ParseError(f"expected '/' in XPath {source!r}", position)
        start = position
        while position < len(text) and text[position] != "/":
            position += 1
        token = text[start:position]
        if not token:
            raise ParseError(f"empty step in XPath {source!r}", start)
        if token == "text()":
            steps.append(Step(axis, NodeTestKind.TEXT))
        elif token == "*":
            steps.append(Step(axis, NodeTestKind.WILDCARD))
        elif token.startswith("@"):
            if len(token) == 1:
                raise ParseError(f"missing attribute name in XPath {source!r}", start)
            steps.append(Step(axis, NodeTestKind.ATTRIBUTE, token[1:]))
        else:
            if not all(ch.isalnum() or ch in "_-." for ch in token):
                raise ParseError(f"invalid step {token!r} in XPath {source!r}", start)
            steps.append(Step(axis, NodeTestKind.NAME, token))
    return XPath(tuple(steps), absolute)


PathResult = Union[XMLNode, str]


class _DocumentStart:
    """Sentinel context for absolute paths: the virtual document node.

    Its only child is the document's top element, and its descendants are
    all elements of the document.  This mirrors the GReX encoding, in which
    the ``root`` relation holds a virtual node above the top element.
    """

    def __init__(self, document: XMLDocument):
        self.document = document

    def children_nodes(self) -> List[XMLNode]:
        return [self.document.root]

    def descendant_nodes(self) -> List[XMLNode]:
        return [self.document.root] + list(self.document.root.descendants())


def evaluate_xpath(
    path: Union[XPath, str],
    document: XMLDocument,
    context: Optional[XMLNode] = None,
) -> List[PathResult]:
    """Evaluate *path* against *document* (or from *context* for relative paths).

    Returns element nodes, or strings for paths ending in ``text()`` or an
    attribute step.  Duplicates are removed while preserving document order,
    matching the set semantics of the relational compilation.  The
    descendant axis is *descendant-or-self*, consistent with the reflexive
    ``desc`` relation of GReX/TIX.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    if path.absolute or context is None:
        current: List[Union[PathResult, _DocumentStart]] = [_DocumentStart(document)]
    else:
        current = [context]
    for step in path.steps:
        current = _apply_step(step, current)
        if not current:
            return []
    return [item for item in current if not isinstance(item, _DocumentStart)]


def _axis_candidates(
    step: Step, node: Union[XMLNode, _DocumentStart]
) -> List[XMLNode]:
    if isinstance(node, _DocumentStart):
        if step.axis is Axis.CHILD:
            return node.children_nodes()
        return node.descendant_nodes()
    if step.axis is Axis.CHILD:
        return list(node.children)
    return list(node.descendants(include_self=True))


def _apply_step(
    step: Step, nodes: Sequence[Union[PathResult, _DocumentStart]]
) -> List[Union[PathResult, _DocumentStart]]:
    output: List[Union[PathResult, _DocumentStart]] = []
    seen: set = set()

    def emit(item: PathResult) -> None:
        key = id(item) if isinstance(item, XMLNode) else ("value", item)
        if key not in seen:
            seen.add(key)
            output.append(item)

    for node in nodes:
        if isinstance(node, str):
            continue  # cannot navigate past a text/attribute value
        if step.kind is NodeTestKind.TEXT:
            if step.axis is Axis.CHILD:
                if isinstance(node, XMLNode) and node.text is not None:
                    emit(node.text)
            else:
                for candidate in _axis_candidates(step, node):
                    if candidate.text is not None:
                        emit(candidate.text)
        elif step.kind is NodeTestKind.ATTRIBUTE:
            if step.axis is Axis.CHILD:
                if isinstance(node, XMLNode) and step.name in node.attributes:
                    emit(node.attributes[step.name])
            else:
                for candidate in _axis_candidates(step, node):
                    if step.name in candidate.attributes:
                        emit(candidate.attributes[step.name])
        elif step.kind is NodeTestKind.WILDCARD:
            for candidate in _axis_candidates(step, node):
                emit(candidate)
        else:
            for candidate in _axis_candidates(step, node):
                if candidate.tag == step.name:
                    emit(candidate)
    return output
