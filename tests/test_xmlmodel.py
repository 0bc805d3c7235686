"""Unit tests for the XML document model, parser, serializer and XPath."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ParseError
from repro.xmlmodel import (
    Axis,
    NodeTestKind,
    XMLDocument,
    XMLNode,
    build_document,
    evaluate_xpath,
    parse_xml,
    parse_xpath,
    serialize,
)


@pytest.fixture
def books() -> XMLDocument:
    root = XMLNode("library")
    for title, author in [("TAPL", "Pierce"), ("SICP", "Abelson"), ("SICP2", "Abelson")]:
        book = root.add("book", category="cs")
        book.add("title", title)
        book.add("author", author)
    return XMLDocument("books.xml", root)


class TestModel:
    def test_node_ids_unique(self, books):
        ids = [node.node_id for node in books.nodes()]
        assert len(ids) == len(set(ids))

    def test_node_count(self, books):
        assert books.node_count() == 1 + 3 * 3

    def test_find_all(self, books):
        assert len(books.find_all("book")) == 3
        assert len(books.find_all("title")) == 3

    def test_ancestors_and_descendants(self, books):
        title = books.find_all("title")[0]
        assert [a.tag for a in title.ancestors()] == ["book", "library"]
        assert books.root in title.ancestors()
        assert title in books.root.descendants()

    def test_text_content_concatenates(self):
        node = XMLNode("a", text="x")
        node.add("b", "y")
        assert node.text_content() == "xy"

    def test_grex_facts_shape(self, books):
        facts = books.grex_facts()
        assert len(facts["el"]) == books.node_count()
        assert len(facts["root"]) == 1
        # virtual document node has the top element as its only child
        doc_node = facts["root"][0][0]
        assert (doc_node, books.root.node_id) in facts["child"]
        # desc is reflexive
        assert (books.root.node_id, books.root.node_id) in facts["desc"]
        # every child edge is also a desc edge
        child_pairs = set(facts["child"])
        assert child_pairs <= set(facts["desc"]) | {(doc_node, books.root.node_id)}

    def test_build_document_from_spec(self):
        document = build_document(
            "d.xml",
            ("catalog", [("drug", [("name", "aspirin"), ("price", "3")])]),
        )
        assert document.root.tag == "catalog"
        assert document.find_all("name")[0].text == "aspirin"


class TestParserSerializer:
    def test_roundtrip(self, books):
        text = serialize(books)
        parsed = parse_xml(text, "books.xml")
        assert parsed.node_count() == books.node_count()
        assert [n.tag for n in parsed.nodes()] == [n.tag for n in books.nodes()]

    def test_parse_attributes_and_entities(self):
        document = parse_xml('<a x="1 &amp; 2"><b>&lt;hi&gt;</b></a>')
        assert document.root.attributes["x"] == "1 & 2"
        assert document.root.children[0].text == "<hi>"

    def test_parse_self_closing_and_comments(self):
        document = parse_xml("<a><!-- note --><b/><c>t</c></a>")
        assert [c.tag for c in document.root.children] == ["b", "c"]

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_xml("<a><b></a>")
        with pytest.raises(ParseError):
            parse_xml("<a>text")
        with pytest.raises(ParseError):
            parse_xml("<a x=1></a>")

    def test_prolog_and_doctype_skipped(self):
        document = parse_xml('<?xml version="1.0"?><!DOCTYPE a><a/>')
        assert document.root.tag == "a"


class TestXPath:
    def test_parse_absolute_and_relative(self):
        absolute = parse_xpath("/library/book")
        relative = parse_xpath("./title/text()")
        bare = parse_xpath("author")
        assert absolute.absolute and not relative.absolute and not bare.absolute
        assert absolute.steps[0].axis is Axis.CHILD
        assert relative.steps[-1].kind is NodeTestKind.TEXT

    def test_parse_descendant_attribute_wildcard(self):
        path = parse_xpath("//book/@category")
        assert path.steps[0].axis is Axis.DESCENDANT
        assert path.steps[1].kind is NodeTestKind.ATTRIBUTE
        assert parse_xpath("//*").steps[0].kind is NodeTestKind.WILDCARD

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_xpath("")
        with pytest.raises(ParseError):
            parse_xpath("//book//")
        with pytest.raises(ParseError):
            parse_xpath("//@")

    def test_returns_value(self):
        assert parse_xpath("//a/text()").returns_value
        assert parse_xpath("//a/@id").returns_value
        assert not parse_xpath("//a").returns_value

    def test_evaluate_descendant(self, books):
        titles = evaluate_xpath("//title/text()", books)
        assert sorted(titles) == ["SICP", "SICP2", "TAPL"]

    def test_evaluate_absolute_child_chain(self, books):
        nodes = evaluate_xpath("/library/book/title", books)
        assert len(nodes) == 3

    def test_evaluate_relative_from_context(self, books):
        book = books.find_all("book")[0]
        assert evaluate_xpath("./title/text()", books, context=book) == ["TAPL"]

    def test_evaluate_attribute(self, books):
        assert evaluate_xpath("//book/@category", books) == ["cs"]

    def test_evaluate_missing_path_is_empty(self, books):
        assert evaluate_xpath("//publisher", books) == []

    def test_descendant_or_self_semantics(self, books):
        # //library matches the root element itself (descendant-or-self).
        assert evaluate_xpath("//library", books) == [books.root]


@given(st.lists(st.sampled_from(["alpha", "beta", "gamma"]), min_size=1, max_size=8))
def test_property_parse_serialize_roundtrip(tags):
    root = XMLNode("root")
    current = root
    for tag in tags:
        current = current.add(tag, text=tag)
    document = XMLDocument("prop.xml", root)
    reparsed = parse_xml(serialize(document), "prop.xml")
    assert [n.tag for n in reparsed.nodes()] == [n.tag for n in document.nodes()]
    assert [n.text for n in reparsed.nodes()] == [n.text for n in document.nodes()]
