"""A small hand-written XML parser producing :class:`XMLDocument` trees.

Only the XML subset needed for the MARS scenarios is supported: elements,
attributes (single or double quoted), character data and comments.  There
is no support for namespaces, processing instructions, DTD internal subsets
or entity definitions beyond the five predefined entities.  The parser is
deliberately strict: malformed input raises :class:`~repro.errors.ParseError`
with a position, which the tests rely on.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import ParseError
from .model import XMLDocument, XMLNode

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


def _decode_entities(text: str, position: int) -> str:
    if "&" not in text:
        return text
    output: List[str] = []
    index = 0
    while index < len(text):
        character = text[index]
        if character != "&":
            output.append(character)
            index += 1
            continue
        end = text.find(";", index)
        if end == -1:
            raise ParseError("unterminated entity reference", position + index)
        name = text[index + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            output.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            output.append(chr(int(name[1:])))
        elif name in _PREDEFINED_ENTITIES:
            output.append(_PREDEFINED_ENTITIES[name])
        else:
            raise ParseError(f"unknown entity &{name};", position + index)
        index = end + 1
    return "".join(output)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.position = 0

    # -- low-level helpers ------------------------------------------------
    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.position)

    def _peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.source[index] if index < len(self.source) else ""

    def _skip_whitespace(self) -> None:
        while self.position < len(self.source) and self.source[self.position].isspace():
            self.position += 1

    def _expect(self, literal: str) -> None:
        if not self.source.startswith(literal, self.position):
            raise self._error(f"expected {literal!r}")
        self.position += len(literal)

    def _read_name(self) -> str:
        start = self.position
        while self.position < len(self.source) and (
            self.source[self.position].isalnum()
            or self.source[self.position] in "_-.:"
        ):
            self.position += 1
        if self.position == start:
            raise self._error("expected a name")
        return self.source[start : self.position]

    # -- grammar ----------------------------------------------------------
    def parse_document(self) -> XMLNode:
        self._skip_prolog()
        self._skip_whitespace()
        root = self.parse_element()
        self._skip_whitespace()
        self._skip_misc()
        if self.position != len(self.source):
            raise self._error("content after document root")
        return root

    def _skip_prolog(self) -> None:
        self._skip_whitespace()
        if self.source.startswith("<?xml", self.position):
            end = self.source.find("?>", self.position)
            if end == -1:
                raise self._error("unterminated XML declaration")
            self.position = end + 2
        self._skip_misc()

    def _skip_misc(self) -> None:
        while True:
            self._skip_whitespace()
            if self.source.startswith("<!--", self.position):
                end = self.source.find("-->", self.position)
                if end == -1:
                    raise self._error("unterminated comment")
                self.position = end + 3
            elif self.source.startswith("<!DOCTYPE", self.position):
                end = self.source.find(">", self.position)
                if end == -1:
                    raise self._error("unterminated DOCTYPE")
                self.position = end + 1
            else:
                return

    def parse_element(self) -> XMLNode:
        self._expect("<")
        tag = self._read_name()
        attributes = self._parse_attributes()
        self._skip_whitespace()
        if self._peek() == "/":
            self._expect("/>")
            return XMLNode(tag, attributes)
        self._expect(">")
        node = XMLNode(tag, attributes)
        text_parts: List[str] = []
        while True:
            if self.position >= len(self.source):
                raise self._error(f"unterminated element <{tag}>")
            if self.source.startswith("<!--", self.position):
                end = self.source.find("-->", self.position)
                if end == -1:
                    raise self._error("unterminated comment")
                self.position = end + 3
            elif self.source.startswith("</", self.position):
                self.position += 2
                closing = self._read_name()
                if closing != tag:
                    raise self._error(f"mismatched closing tag </{closing}> for <{tag}>")
                self._skip_whitespace()
                self._expect(">")
                break
            elif self._peek() == "<":
                node.append(self.parse_element())
            else:
                start = self.position
                next_tag = self.source.find("<", self.position)
                if next_tag == -1:
                    raise self._error(f"unterminated element <{tag}>")
                raw = self.source[start:next_tag]
                text_parts.append(_decode_entities(raw, start))
                self.position = next_tag
        text = "".join(text_parts).strip()
        node.text = text if text else None
        return node

    def _parse_attributes(self) -> Dict[str, str]:
        attributes: Dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self._peek() in (">", "/", ""):
                return attributes
            name = self._read_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            quote = self._peek()
            if quote not in ("'", '"'):
                raise self._error("attribute value must be quoted")
            self.position += 1
            end = self.source.find(quote, self.position)
            if end == -1:
                raise self._error("unterminated attribute value")
            attributes[name] = _decode_entities(
                self.source[self.position : end], self.position
            )
            self.position = end + 1


def parse_xml(source: str, name: str = "document") -> XMLDocument:
    """Parse *source* into an :class:`XMLDocument` called *name*."""
    root = _Parser(source).parse_document()
    return XMLDocument(name, root)
