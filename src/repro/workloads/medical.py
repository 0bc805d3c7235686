"""The medical publishing scenario of paper Example 1.1.

Proprietary storage:

* relational tables ``patientDiag(name, diag)`` and
  ``patientDrug(name, drug, usage)`` (sensitive: patient names);
* a native XML document ``catalog.xml`` associating drugs with prices and
  free-form notes;
* for tuning, a redundant relational copy ``drugPrice(drug, price)`` of part
  of ``catalog.xml`` (STORED-style LAV view) and, optionally, a cached XML
  document ``cache.xml`` holding the result of a previously answered query
  (the association diagnosis-drug from ``case.xml``).

Public schema:

* ``case.xml``, produced by the GAV view ``CaseMap`` which joins the two
  patient tables on the (hidden) patient name;
* ``catalog.xml``, published as-is (IdMap).

The client query asks for the association between each diagnosis and the
corresponding drug's price; thanks to the redundancy it has several
reformulations, and MARS picks the cheapest.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..compile.view_compiler import ElementRule, RelationalView, XMLView
from ..core.configuration import MarsConfiguration
from ..logical.terms import Variable
from ..xbind.atoms import PathAtom
from ..xbind.query import XBindQuery
from ..xmlmodel.model import XMLDocument, XMLNode

CASE_DOCUMENT = "case.xml"
CATALOG_DOCUMENT = "catalog.xml"
CACHE_DOCUMENT = "cache.xml"

DEFAULT_PATIENTS = (
    ("ana", "flu", "tamiflu", "oral"),
    ("bob", "flu", "tamiflu", "oral"),
    ("cruz", "migraine", "triptan", "oral"),
    ("dana", "asthma", "albuterol", "inhaled"),
    ("eve", "migraine", "ibuprofen", "oral"),
)

DEFAULT_CATALOG = (
    ("tamiflu", "75", "take with food"),
    ("triptan", "120", "max twice daily"),
    ("albuterol", "40", "shake before use"),
    ("ibuprofen", "5", "generic available"),
    ("insulin", "90", "refrigerate"),
)


def build_catalog_document(
    entries: Sequence[Tuple[str, str, str]] = DEFAULT_CATALOG,
) -> XMLDocument:
    """The stored ``catalog.xml`` document: drug name, price and notes."""
    root = XMLNode("catalog")
    for name, price, notes in entries:
        drug = root.add("drug")
        drug.add("name", name)
        drug.add("price", price)
        drug.add("notes", notes)
    return XMLDocument(CATALOG_DOCUMENT, root)


def case_map_view() -> XMLView:
    """The GAV mapping CaseMap: publish patient data as ``case.xml``, hiding names."""
    diag, drug, usage = Variable("diag"), Variable("drug"), Variable("usage")
    name = Variable("pname")
    from ..logical.atoms import RelationalAtom

    case_body = (
        RelationalAtom("patientDiag", (name, diag)),
        RelationalAtom("patientDrug", (name, drug, usage)),
    )
    return XMLView(
        "CaseMap",
        CASE_DOCUMENT,
        [
            ElementRule("cases", "cases", (), ()),
            ElementRule(
                "case", "case", (diag, drug, usage), case_body, parent="cases"
            ),
            ElementRule(
                "diag",
                "diag",
                (diag, drug, usage),
                case_body,
                parent="case",
                text_var=diag,
            ),
            ElementRule(
                "drug",
                "drug",
                (diag, drug, usage),
                case_body,
                parent="case",
                text_var=drug,
            ),
            ElementRule(
                "usage",
                "usage",
                (diag, drug, usage),
                case_body,
                parent="case",
                text_var=usage,
            ),
        ],
    )


def drug_price_view() -> RelationalView:
    """The STORED-style redundant relational copy of drug prices (DrugPriceMap)."""
    drug_el, drug, price = Variable("d_el"), Variable("drug"), Variable("price")
    definition = XBindQuery(
        "DrugPriceMap",
        (drug, price),
        (
            PathAtom("//drug", drug_el, document=CATALOG_DOCUMENT),
            PathAtom("./name/text()", drug, source=drug_el),
            PathAtom("./price/text()", price, source=drug_el),
        ),
    )
    return RelationalView("drugPrice", definition)


def cache_view() -> XMLView:
    """The cached answer of PrevQ: diagnosis-drug associations from ``case.xml``."""
    case_el, diag, drug = Variable("c_el"), Variable("cdiag"), Variable("cdrug")
    body = (
        PathAtom("//case", case_el, document=CASE_DOCUMENT),
        PathAtom("./diag/text()", diag, source=case_el),
        PathAtom("./drug/text()", drug, source=case_el),
    )
    return XMLView(
        "PrevQ",
        CACHE_DOCUMENT,
        [
            ElementRule("cache", "cache", (), ()),
            ElementRule("entry", "entry", (diag, drug), body, parent="cache"),
            ElementRule(
                "ediag", "diag", (diag, drug), body, parent="entry", text_var=diag
            ),
            ElementRule(
                "edrug", "drug", (diag, drug), body, parent="entry", text_var=drug
            ),
        ],
    )


def build_configuration(
    patients: Sequence[Tuple[str, str, str, str]] = DEFAULT_PATIENTS,
    catalog: Sequence[Tuple[str, str, str]] = DEFAULT_CATALOG,
    include_cache: bool = False,
) -> MarsConfiguration:
    """The full Example 1.1 configuration with instance data."""
    configuration = MarsConfiguration("medical")
    configuration.add_relation(
        "patientDiag",
        ("name", "diag"),
        rows=[(name, diag) for name, diag, _, _ in patients],
    )
    configuration.add_relation(
        "patientDrug",
        ("name", "drug", "usage"),
        rows=[(name, drug, usage) for name, _, drug, usage in patients],
    )
    configuration.publish_document_as_is(CATALOG_DOCUMENT, build_catalog_document(catalog))
    configuration.add_xml_view(case_map_view(), published=True)
    configuration.add_relational_view(drug_price_view(), attributes=("drug", "price"))
    # Sharding hints: the two patient tables split on the (hidden) patient
    # name — CaseMap joins them on it, so a sharded deployment keeps that
    # join co-partitioned — and the redundant price copy splits on drug.
    # The catalog's GReX encoding stays broadcast (small dimension data).
    configuration.set_partition_key("patientDiag", "name")
    configuration.set_partition_key("patientDrug", "name")
    configuration.set_partition_key("drugPrice", "drug")
    if include_cache:
        cache = cache_view()
        configuration.add_xml_view(cache, published=False)
        configuration.add_proprietary_document(CACHE_DOCUMENT)
        configuration.public_documents.pop(CACHE_DOCUMENT, None)
    return configuration


def client_query() -> XBindQuery:
    """Example 1.1's client query: diagnosis joined with the drug's price."""
    case_el, drug_el = Variable("case_el"), Variable("drug_el")
    diag, drug, price = Variable("diag"), Variable("drug"), Variable("price")
    return XBindQuery(
        "DiagPrice",
        (diag, price),
        (
            PathAtom("//case", case_el, document=CASE_DOCUMENT),
            PathAtom("./diag/text()", diag, source=case_el),
            PathAtom("./drug/text()", drug, source=case_el),
            PathAtom("//drug", drug_el, document=CATALOG_DOCUMENT),
            PathAtom("./name/text()", drug, source=drug_el),
            PathAtom("./price/text()", price, source=drug_el),
        ),
    )


def drug_usage_query() -> XBindQuery:
    """A second client query: drugs and how they are used, from ``case.xml`` only."""
    case_el = Variable("case_el")
    drug, usage = Variable("drug"), Variable("usage")
    return XBindQuery(
        "DrugUsage",
        (drug, usage),
        (
            PathAtom("//case", case_el, document=CASE_DOCUMENT),
            PathAtom("./drug/text()", drug, source=case_el),
            PathAtom("./usage/text()", usage, source=case_el),
        ),
    )
