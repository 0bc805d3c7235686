"""XML substrate: document model, parsing, serialization and XPath."""

from .model import XMLDocument, XMLNode, build_document
from .parser import parse_xml
from .serialize import serialize, serialize_node
from .xpath import Axis, NodeTestKind, Step, XPath, evaluate_xpath, parse_xpath

__all__ = [
    "Axis",
    "NodeTestKind",
    "Step",
    "XMLDocument",
    "XMLNode",
    "XPath",
    "build_document",
    "evaluate_xpath",
    "parse_xml",
    "parse_xpath",
    "serialize",
    "serialize_node",
]
