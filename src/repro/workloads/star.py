"""The synthetic XML star-query scenario (paper sections 4.1, 4.2 and 5.2).

Public schema (one document, ``star.xml``): ``R`` elements (children of the
root) with a key subelement ``K`` and foreign-key subelements ``A1..A_NC``;
for every corner ``1 <= i <= NC`` there are ``Si`` elements with subelements
``A`` and ``B``.  ``R.Ai`` references ``Si.A`` and ``K`` is a key for ``R``
(expressed as XICs).

Proprietary schema: a relational shredding of the document (the hub table
``R_store`` and one corner table per ``Si``), plus ``NV`` redundantly
materialized star views ``V_l`` joining the hub with corners ``l`` and
``l+1`` and projecting on ``K`` and the two ``B`` values.  The document is
*published* from this storage; the shredding and the views are LAV views of
the published document.  (The paper materializes the views as XML; here they
are stored relationally.  The reformulation search space, which is what the
experiments measure, is the same: any subset of the views can be combined
with base accesses thanks to the key constraint on ``R``.)

The client query joins ``R`` with all ``NC`` corners and returns ``K`` and
every corner's ``B``; with the key XIC it can be rewritten using any subset
of the views, so the backchase faces on the order of ``2^NV`` minimal
reformulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..compile.view_compiler import RelationalView
from ..core.configuration import MarsConfiguration
from ..logical.terms import Variable
from ..xbind.atoms import PathAtom
from ..xbind.query import XBindQuery
from ..xmlmodel.model import XMLDocument, XMLNode
from .datagen import SyntheticDataGenerator

STAR_DOCUMENT = "star.xml"


@dataclass(frozen=True)
class StarParameters:
    """Parameters of one star configuration."""

    corners: int = 3  # NC in the paper
    views: Optional[int] = None  # NV; defaults to NC - 1
    hub_count: int = 20  # number of R elements in the generated instance
    corner_size: int = 20  # number of Si elements per corner
    include_base_storage: bool = True  # False for the views-only scenario
    seed: int = 7

    @property
    def view_count(self) -> int:
        if self.views is not None:
            return self.views
        return max(0, self.corners - 1)


def corner_tag(index: int) -> str:
    return f"S{index}"


def hub_attribute_tag(index: int) -> str:
    return f"A{index}"


def view_name(index: int) -> str:
    return f"V{index}"


# ----------------------------------------------------------------------
# Instance data
# ----------------------------------------------------------------------
def build_star_document(parameters: StarParameters) -> XMLDocument:
    """Generate an instance of the public star document."""
    generator = SyntheticDataGenerator(parameters.seed)
    root = XMLNode("star")
    for corner in range(1, parameters.corners + 1):
        for row in range(parameters.corner_size):
            element = root.add(corner_tag(corner))
            element.add("A", f"a{corner}_{row}")
            element.add("B", generator.token(f"b{corner}"))
    for hub in range(parameters.hub_count):
        element = root.add("R")
        element.add("K", f"k{hub}")
        for corner in range(1, parameters.corners + 1):
            row = generator.integer(0, parameters.corner_size - 1)
            element.add(hub_attribute_tag(corner), f"a{corner}_{row}")
    return XMLDocument(STAR_DOCUMENT, root)


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
def hub_shredding_view(parameters: StarParameters) -> RelationalView:
    """The shredded hub table: ``R_store(k, a1, ..., a_NC)``."""
    hub = Variable("r_el")
    key = Variable("k")
    attributes = [Variable(f"a{i}") for i in range(1, parameters.corners + 1)]
    body = [
        PathAtom("//R", hub, document=STAR_DOCUMENT),
        PathAtom("./K/text()", key, source=hub),
    ]
    for index, variable in enumerate(attributes, start=1):
        body.append(PathAtom(f"./{hub_attribute_tag(index)}/text()", variable, source=hub))
    definition = XBindQuery("RStoreMap", (key, *attributes), body)
    return RelationalView("R_store", definition)


def corner_shredding_view(index: int) -> RelationalView:
    """The shredded corner table ``S{index}_store(a, b)``."""
    corner = Variable("s_el")
    a, b = Variable("a"), Variable("b")
    definition = XBindQuery(
        f"S{index}StoreMap",
        (a, b),
        (
            PathAtom(f"//{corner_tag(index)}", corner, document=STAR_DOCUMENT),
            PathAtom("./A/text()", a, source=corner),
            PathAtom("./B/text()", b, source=corner),
        ),
    )
    return RelationalView(f"S{index}_store", definition)


def star_view(index: int) -> RelationalView:
    """The materialized star view ``V_index(k, b_index, b_index+1)``."""
    hub = Variable("r_el")
    key = Variable("k")
    left_corner, right_corner = Variable("sl_el"), Variable("sr_el")
    left_a, right_a = Variable("al"), Variable("ar")
    left_b, right_b = Variable("bl"), Variable("br")
    definition = XBindQuery(
        f"ViewMap{index}",
        (key, left_b, right_b),
        (
            PathAtom("//R", hub, document=STAR_DOCUMENT),
            PathAtom("./K/text()", key, source=hub),
            PathAtom(f"./{hub_attribute_tag(index)}/text()", left_a, source=hub),
            PathAtom(f"./{hub_attribute_tag(index + 1)}/text()", right_a, source=hub),
            PathAtom(f"//{corner_tag(index)}", left_corner, document=STAR_DOCUMENT),
            PathAtom("./A/text()", left_a, source=left_corner),
            PathAtom("./B/text()", left_b, source=left_corner),
            PathAtom(f"//{corner_tag(index + 1)}", right_corner, document=STAR_DOCUMENT),
            PathAtom("./A/text()", right_a, source=right_corner),
            PathAtom("./B/text()", right_b, source=right_corner),
        ),
    )
    return RelationalView(view_name(index), definition)


# ----------------------------------------------------------------------
# Integrity constraints
# ----------------------------------------------------------------------
def star_xics(parameters: StarParameters):
    """The key XIC on R and a foreign-key XIC per corner."""
    from ..compile.xic import XIC, xic_key

    xics = [xic_key("key_R_K", "//R", "./K/text()", document=STAR_DOCUMENT)]
    for index in range(1, parameters.corners + 1):
        hub, a, corner = Variable("r"), Variable("a"), Variable("s")
        xics.append(
            XIC(
                f"fk_R_A{index}",
                [
                    PathAtom("//R", hub, document=STAR_DOCUMENT),
                    PathAtom(f"./{hub_attribute_tag(index)}/text()", a, source=hub),
                ],
                [
                    [
                        PathAtom(f"//{corner_tag(index)}", corner, document=STAR_DOCUMENT),
                        PathAtom("./A/text()", a, source=corner),
                    ]
                ],
            )
        )
    return xics


# ----------------------------------------------------------------------
# Configuration and client query
# ----------------------------------------------------------------------
def build_configuration(
    parameters: StarParameters, with_instance: bool = False
) -> MarsConfiguration:
    """Assemble the star configuration.

    With ``parameters.include_base_storage`` the proprietary schema contains
    the shredded base tables *and* the views (the Figure 5 scenario: maximal
    redundancy); without it only the views are stored (the views-only
    scenario).
    """
    configuration = MarsConfiguration(f"star_nc{parameters.corners}")
    instance = build_star_document(parameters) if with_instance else None
    configuration.add_public_document(STAR_DOCUMENT, instance)
    for xic in star_xics(parameters):
        configuration.add_xic(xic)
    if parameters.include_base_storage:
        hub_view = hub_shredding_view(parameters)
        configuration.add_relational_view(
            hub_view,
            attributes=("k",) + tuple(f"a{i}" for i in range(1, parameters.corners + 1)),
        )
        configuration.add_key("R_store", ("k",))
        # Sharding hints: the hub splits on its key; corner tables split on
        # their A value (the hub's foreign key into them).
        configuration.set_partition_key("R_store", "k")
        for index in range(1, parameters.corners + 1):
            configuration.add_relational_view(
                corner_shredding_view(index), attributes=("a", "b")
            )
            configuration.set_partition_key(f"S{index}_store", "a")
    for index in range(1, parameters.view_count + 1):
        configuration.add_relational_view(
            star_view(index), attributes=("k", "b_left", "b_right")
        )
        # The star views carry the hub key, so they shard alongside it.
        configuration.set_partition_key(view_name(index), "k")
    return configuration


def client_query(parameters: StarParameters) -> XBindQuery:
    """The star client query joining R with all NC corners."""
    hub = Variable("r_el")
    key = Variable("k")
    head: List[Variable] = [key]
    body = [
        PathAtom("//R", hub, document=STAR_DOCUMENT),
        PathAtom("./K/text()", key, source=hub),
    ]
    for index in range(1, parameters.corners + 1):
        a = Variable(f"a{index}")
        b = Variable(f"b{index}")
        corner = Variable(f"s{index}_el")
        body.append(PathAtom(f"./{hub_attribute_tag(index)}/text()", a, source=hub))
        body.append(PathAtom(f"//{corner_tag(index)}", corner, document=STAR_DOCUMENT))
        body.append(PathAtom("./A/text()", a, source=corner))
        body.append(PathAtom("./B/text()", b, source=corner))
        head.append(b)
    return XBindQuery(f"Star{parameters.corners}", head, body)
