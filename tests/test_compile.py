"""Unit tests for GReX, TIX, the XBind/XIC compilers and view compilation."""

import pytest

from repro.compile import (
    GREX_ARITIES,
    ElementRule,
    GrexCompiler,
    GrexSchema,
    IdentityView,
    RelationalView,
    XMLView,
    compile_xic,
    tix_dependencies,
    xic_exists_child,
    xic_key,
)
from repro.errors import CompilationError
from repro.logical import Constant, EqualityAtom, RelationalAtom, Variable
from repro.storage import InMemoryDatabase
from repro.xbind import PathAtom, XBindQuery
from repro.xmlmodel import XMLDocument, XMLNode


@pytest.fixture
def schema():
    return GrexSchema("books.xml")


@pytest.fixture
def compiler(schema):
    return GrexCompiler({"books.xml": schema})


class TestGrexSchema:
    def test_relation_names_are_suffixed(self, schema):
        assert schema.relation("child") == "child__books_xml"
        assert len(schema.relation_names()) == len(GREX_ARITIES)

    def test_unknown_relation_rejected(self, schema):
        with pytest.raises(KeyError):
            schema.relation("bogus")

    def test_closure_spec_matches_names(self, schema):
        spec = schema.closure_spec()
        assert spec.child == schema.relation("child")
        assert spec.desc == schema.relation("desc")

    def test_materialize_document(self, schema):
        root = XMLNode("library")
        root.add("book", "b1")
        document = XMLDocument("books.xml", root)
        database = InMemoryDatabase()
        schema.materialize(document, database)
        assert database.cardinality(schema.relation("el")) == 2
        assert database.cardinality(schema.relation("root")) == 1
        # re-materializing replaces rather than duplicates
        schema.materialize(document, database)
        assert database.cardinality(schema.relation("el")) == 2


class TestTix:
    def test_axiom_count_and_names(self, schema):
        axioms = tix_dependencies(schema)
        names = {d.name for d in axioms}
        assert any(name.startswith("tix_base") for name in names)
        assert any(name.startswith("tix_trans") for name in names)
        assert any(name.startswith("tix_tag_key") for name in names)
        assert all(not d.is_disjunctive for d in axioms)

    def test_disjunctive_line_axiom_optional(self, schema):
        axioms = tix_dependencies(schema, include_disjunctive=True)
        assert any(d.is_disjunctive for d in axioms)


class TestXBindCompilation:
    def test_descendant_text_path(self, compiler, schema):
        a = Variable("a")
        query = XBindQuery("Xbo", (a,), (PathAtom("//author/text()", a),))
        compiled = compiler.compile_xbind(query)
        relations = {atom.relation for atom in compiled.relational_body}
        assert schema.relation("root") in relations
        assert schema.relation("desc") in relations
        assert schema.relation("text") in relations
        # the tag constant is present
        assert any(
            Constant("author") in atom.terms for atom in compiled.relational_body
        )

    def test_relative_child_path(self, compiler, schema):
        b, t = Variable("b"), Variable("t")
        query = XBindQuery(
            "Xbi",
            (b, t),
            (PathAtom("//book", b), PathAtom("./title/text()", t, source=b)),
        )
        compiled = compiler.compile_xbind(query)
        child_atoms = [
            a for a in compiled.relational_body if a.relation == schema.relation("child")
        ]
        assert any(atom.terms[0] == b for atom in child_atoms)

    def test_attribute_and_wildcard(self, compiler, schema):
        n, i = Variable("n"), Variable("i")
        query = XBindQuery(
            "Xa",
            (i,),
            (PathAtom("//*", n), PathAtom("./@id", i, source=n)),
        )
        compiled = compiler.compile_xbind(query)
        relations = {atom.relation for atom in compiled.relational_body}
        assert schema.relation("attr") in relations
        # wildcard step has no tag atom for the wildcard element
        tag_atoms = [a for a in compiled.relational_body if a.relation == schema.relation("tag")]
        assert all(atom.terms[0] != n for atom in tag_atoms)

    def test_stress_path_compiles_to_twenty_atoms(self, compiler):
        """The section 3 stress test: //a/b/.../j = 1 desc + 9 child + 10 tag."""
        target = Variable("t")
        query = XBindQuery("Stress", (target,), (PathAtom("//a/b/c/d/e/f/g/h/i/j", target),))
        compiled = compiler.compile_xbind(query)
        by_base = {}
        for atom in compiled.relational_body:
            base = atom.relation.split("__")[0]
            by_base[base] = by_base.get(base, 0) + 1
        assert by_base["desc"] == 1
        assert by_base["child"] == 9
        assert by_base["tag"] == 10

    def test_equalities_pass_through(self, compiler):
        a, b = Variable("a"), Variable("b")
        query = XBindQuery(
            "Xe",
            (a,),
            (PathAtom("//x/text()", a), PathAtom("//y/text()", b), EqualityAtom(a, b)),
        )
        compiled = compiler.compile_xbind(query)
        assert any(isinstance(atom, EqualityAtom) for atom in compiled.body)

    def test_unresolvable_document_raises(self):
        compiler = GrexCompiler(
            {"a.xml": GrexSchema("a.xml"), "b.xml": GrexSchema("b.xml")}
        )
        query = XBindQuery("X", (Variable("v"),), (PathAtom("//x", Variable("v")),))
        with pytest.raises(CompilationError):
            compiler.compile_xbind(query)

    def test_document_resolution_propagates_from_source(self):
        compiler = GrexCompiler(
            {"a.xml": GrexSchema("a.xml"), "b.xml": GrexSchema("b.xml")}
        )
        e, t = Variable("e"), Variable("t")
        query = XBindQuery(
            "X",
            (t,),
            (
                PathAtom("//x", e, document="b.xml"),
                PathAtom("./y/text()", t, source=e),
            ),
        )
        compiled = compiler.compile_xbind(query)
        assert all("__b_xml" in atom.relation for atom in compiled.relational_body)


class TestXICCompilation:
    def test_key_xic_compiles_to_egd(self, compiler):
        xic = xic_key("person_key", "//person", "./ssn/text()")
        ded = compile_xic(xic, compiler)
        # An equality-only conclusion: the key identifies the nodes.
        (conclusion,) = ded.disjuncts
        assert conclusion.atoms
        assert conclusion.equalities() == conclusion.atoms
        assert len(ded.premise) > 2

    def test_exists_child_xic_compiles_to_tgd(self, compiler, schema):
        xic = xic_exists_child("person_ssn", "//person", "./ssn")
        ded = compile_xic(xic, compiler)
        (conclusion,) = ded.disjuncts
        assert conclusion.relational_atoms()
        conclusion_relations = {
            a.relation for a in ded.disjuncts[0].relational_atoms()
        }
        assert schema.relation("child") in conclusion_relations
        assert schema.relation("tag") in conclusion_relations
        # conclusion introduces an existential variable for the ssn element
        assert ded.existential_variables()


class TestRelationalViewCompilation:
    def test_two_inclusion_dependencies(self, compiler):
        d, p = Variable("d"), Variable("p")
        e = Variable("e")
        view = RelationalView(
            "drugPrice",
            XBindQuery(
                "DrugPriceMap",
                (d, p),
                (
                    PathAtom("//drug", e),
                    PathAtom("./name/text()", d, source=e),
                    PathAtom("./price/text()", p, source=e),
                ),
            ),
        )
        dependencies = view.compile(compiler)
        assert len(dependencies) == 2
        forward, backward = dependencies
        assert forward.name == "c_drugPrice"
        assert backward.name == "b_drugPrice"
        assert any(a.relation == "drugPrice" for a in forward.disjuncts[0].relational_atoms())
        assert backward.premise[0].relation == "drugPrice"


class TestXMLViewCompilation:
    def _view(self):
        diag, drug = Variable("diag"), Variable("drug")
        body = (
            RelationalAtom("patientDiag", (Variable("n"), diag)),
            RelationalAtom("patientDrug", (Variable("n"), drug, Variable("u"))),
        )
        return XMLView(
            "CaseMap",
            "case.xml",
            [
                ElementRule("cases", "cases", (), ()),
                ElementRule("case", "case", (diag, drug), body, parent="cases"),
                ElementRule(
                    "diag", "diag", (diag, drug), body, parent="case", text_var=diag
                ),
            ],
        )

    def test_rule_validation(self):
        with pytest.raises(CompilationError):
            XMLView("V", "out.xml", [])  # no root rule
        with pytest.raises(CompilationError):
            XMLView(
                "V",
                "out.xml",
                [
                    ElementRule("a", "a", (), ()),
                    ElementRule("b", "b", (), (), parent="missing"),
                ],
            )

    def test_compilation_produces_skolem_constraints(self):
        view = self._view()
        target = GrexSchema("case.xml")
        compiler = GrexCompiler({"case.xml": target})
        dependencies = view.compile(compiler, target)
        names = {d.name for d in dependencies}
        assert "G_CaseMap_case_domain" in names
        assert "G_CaseMap_case_functional" in names
        assert "G_CaseMap_case_injective" in names
        assert "G_CaseMap_case_structure" in names
        assert "G_CaseMap_diag_text" in names
        # reverse constraints exist for reformulation back onto the sources
        assert any(name.endswith("_reverse") for name in names)
        assert any(name.endswith("_reverse_tag") for name in names)

    def test_materialization_builds_document(self):
        from repro.xbind import MixedStorage

        view = self._view()
        database = InMemoryDatabase()
        database.create_table("patientDiag", 2)
        database.create_table("patientDrug", 3)
        database.insert_many("patientDiag", [("ana", "flu"), ("bob", "cold")])
        database.insert_many("patientDrug", [("ana", "tamiflu", "oral"), ("bob", "syrup", "oral")])
        storage = MixedStorage(database=database)
        document = view.materialize(storage)
        assert document.root.tag == "cases"
        assert len(document.find_all("case")) == 2
        assert sorted(n.text for n in document.find_all("diag")) == ["cold", "flu"]


class TestIdentityView:
    def test_identity_compilation_links_documents(self):
        source = GrexSchema("stored.xml")
        target = GrexSchema("published.xml")
        view = IdentityView("IdMap", "stored.xml", "published.xml")
        dependencies = view.compile(source, target)
        assert len(dependencies) == 2 * len(GREX_ARITIES)
        names = {d.name for d in dependencies}
        assert "IdMap_child_fwd" in names and "IdMap_child_bwd" in names
