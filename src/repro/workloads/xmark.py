"""An XMark-style auction scenario (paper section 4.2, "More Experiments").

The XMark benchmark [27] models an auction site: items grouped by region,
registered people, and closed auctions referencing items and buyers.  The
paper uses an XMark-based configuration with realistic queries and
redundant views to show that reformulation times stay well within
feasibility range (about 350 ms on average on 2003 hardware).

Our rendition publishes a stored ``auction.xml`` document as-is and adds
redundant relational materializations typical of tuning: a name index over
items, a person directory, and a closed-auction price summary.  The query
suite exercises descendant navigation, attribute access, value joins across
subtrees, selections on constants and inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..compile.view_compiler import RelationalView
from ..core.configuration import MarsConfiguration
from ..logical.atoms import InequalityAtom
from ..logical.terms import Constant, Variable
from ..xbind.atoms import PathAtom
from ..xbind.query import XBindQuery
from ..xmlmodel.model import XMLDocument, XMLNode
from .datagen import SyntheticDataGenerator

AUCTION_DOCUMENT = "auction.xml"
REGIONS = ("europe", "namerica", "asia")


@dataclass(frozen=True)
class XMarkParameters:
    """Size knobs for the generated auction document."""

    items_per_region: int = 12
    people: int = 20
    closed_auctions: int = 25
    seed: int = 13


# ----------------------------------------------------------------------
# Instance data
# ----------------------------------------------------------------------
def build_auction_document(parameters: XMarkParameters = XMarkParameters()) -> XMLDocument:
    """Generate an auction-site document in the spirit of XMark."""
    generator = SyntheticDataGenerator(parameters.seed)
    site = XMLNode("site")
    regions = site.add("regions")
    item_ids: List[str] = []
    for region in REGIONS:
        region_node = regions.add(region)
        for index in range(parameters.items_per_region):
            item_id = f"item_{region}_{index}"
            item_ids.append(item_id)
            item = region_node.add("item", id=item_id)
            item.add("name", generator.token("gadget"))
            item.add("category", generator.choice(("art", "books", "coins", "toys")))
            item.add("description", generator.words(6))
    people = site.add("people")
    person_ids: List[str] = []
    for index in range(parameters.people):
        person_id = f"person_{index}"
        person_ids.append(person_id)
        person = people.add("person", id=person_id)
        person.add("name", generator.token("name"))
        person.add("city", generator.choice(("paris", "berlin", "tokyo", "boston")))
    closed = site.add("closed_auctions")
    for index in range(parameters.closed_auctions):
        auction = closed.add("closed_auction")
        auction.add("itemref", generator.choice(item_ids))
        auction.add("buyer", generator.choice(person_ids))
        auction.add("price", str(generator.integer(5, 500)))
    return XMLDocument(AUCTION_DOCUMENT, site)


# ----------------------------------------------------------------------
# Redundant views
# ----------------------------------------------------------------------
def item_name_view() -> RelationalView:
    item, item_id, name = Variable("i_el"), Variable("item_id"), Variable("name")
    definition = XBindQuery(
        "ItemNameMap",
        (item_id, name),
        (
            PathAtom("//item", item, document=AUCTION_DOCUMENT),
            PathAtom("./@id", item_id, source=item),
            PathAtom("./name/text()", name, source=item),
        ),
    )
    return RelationalView("itemName", definition)


def item_category_view() -> RelationalView:
    item, item_id, category = Variable("i_el"), Variable("item_id"), Variable("cat")
    definition = XBindQuery(
        "ItemCategoryMap",
        (item_id, category),
        (
            PathAtom("//item", item, document=AUCTION_DOCUMENT),
            PathAtom("./@id", item_id, source=item),
            PathAtom("./category/text()", category, source=item),
        ),
    )
    return RelationalView("itemCategory", definition)


def person_directory_view() -> RelationalView:
    person, person_id = Variable("p_el"), Variable("person_id")
    name, city = Variable("name"), Variable("city")
    definition = XBindQuery(
        "PersonDirectoryMap",
        (person_id, name, city),
        (
            PathAtom("//person", person, document=AUCTION_DOCUMENT),
            PathAtom("./@id", person_id, source=person),
            PathAtom("./name/text()", name, source=person),
            PathAtom("./city/text()", city, source=person),
        ),
    )
    return RelationalView("personDirectory", definition)


def auction_price_view() -> RelationalView:
    auction, item_id = Variable("a_el"), Variable("item_id")
    buyer, price = Variable("buyer_id"), Variable("price")
    definition = XBindQuery(
        "AuctionPriceMap",
        (item_id, buyer, price),
        (
            PathAtom("//closed_auction", auction, document=AUCTION_DOCUMENT),
            PathAtom("./itemref/text()", item_id, source=auction),
            PathAtom("./buyer/text()", buyer, source=auction),
            PathAtom("./price/text()", price, source=auction),
        ),
    )
    return RelationalView("auctionPrice", definition)


def build_configuration(
    parameters: XMarkParameters = XMarkParameters(), with_instance: bool = True
) -> MarsConfiguration:
    """The XMark-style MARS configuration."""
    from ..compile.xic import XIC, xic_key

    configuration = MarsConfiguration("xmark")
    instance = build_auction_document(parameters) if with_instance else None
    configuration.publish_document_as_is(AUCTION_DOCUMENT, instance)
    # XML Schema style constraints: @id identifies items and people, and every
    # item/person carries one (key + existence, as the paper's XICs express).
    configuration.add_xic(
        xic_key("key_item_id", "//item", "./@id", document=AUCTION_DOCUMENT)
    )
    configuration.add_xic(
        xic_key("key_person_id", "//person", "./@id", document=AUCTION_DOCUMENT)
    )
    for tag in ("item", "person"):
        element, identifier = Variable("e"), Variable("i")
        configuration.add_xic(
            XIC(
                f"exists_{tag}_id",
                [PathAtom(f"//{tag}", element, document=AUCTION_DOCUMENT)],
                [[PathAtom("./@id", identifier, source=element)]],
            )
        )
    for child in ("buyer", "itemref", "price"):
        auction_el, value = Variable("ca"), Variable("cv")
        configuration.add_xic(
            XIC(
                f"exists_auction_{child}",
                [PathAtom("//closed_auction", auction_el, document=AUCTION_DOCUMENT)],
                [[PathAtom(f"./{child}/text()", value, source=auction_el)]],
            )
        )
    configuration.add_relational_view(item_name_view(), attributes=("item_id", "name"))
    configuration.add_relational_view(
        item_category_view(), attributes=("item_id", "category")
    )
    configuration.add_relational_view(
        person_directory_view(), attributes=("person_id", "name", "city")
    )
    configuration.add_relational_view(
        auction_price_view(), attributes=("item_id", "buyer_id", "price")
    )
    # Sharding hints: the item-keyed views split on item_id (so the
    # item-name/auction-price join Q4 exercises is co-partitioned), the
    # person directory on person_id.  The auction document's GReX encoding
    # stays broadcast.
    configuration.set_partition_key("itemName", "item_id")
    configuration.set_partition_key("itemCategory", "item_id")
    configuration.set_partition_key("personDirectory", "person_id")
    configuration.set_partition_key("auctionPrice", "item_id")
    return configuration


# ----------------------------------------------------------------------
# The query suite
# ----------------------------------------------------------------------
def query_item_names() -> XBindQuery:
    """Q1: identifiers and names of all items (descendant navigation + attribute)."""
    item, item_id, name = Variable("i_el"), Variable("item_id"), Variable("name")
    return XBindQuery(
        "ItemNames",
        (item_id, name),
        (
            PathAtom("//item", item, document=AUCTION_DOCUMENT),
            PathAtom("./@id", item_id, source=item),
            PathAtom("./name/text()", name, source=item),
        ),
    )


def query_items_in_category(category: str = "art") -> XBindQuery:
    """Q2: items of a given category (selection on a constant)."""
    item, item_id, name = Variable("i_el"), Variable("item_id"), Variable("name")
    return XBindQuery(
        "ItemsInCategory",
        (item_id, name),
        (
            PathAtom("//item", item, document=AUCTION_DOCUMENT),
            PathAtom("./@id", item_id, source=item),
            PathAtom("./name/text()", name, source=item),
            PathAtom("./category/text()", Constant(category), source=item),
        ),
    )


def query_person_cities() -> XBindQuery:
    """Q3: names and cities of registered people."""
    person, name, city = Variable("p_el"), Variable("name"), Variable("city")
    return XBindQuery(
        "PersonCities",
        (name, city),
        (
            PathAtom("//person", person, document=AUCTION_DOCUMENT),
            PathAtom("./name/text()", name, source=person),
            PathAtom("./city/text()", city, source=person),
        ),
    )


def query_item_prices() -> XBindQuery:
    """Q4: item names with the price they sold for (value join across subtrees)."""
    item, auction = Variable("i_el"), Variable("a_el")
    item_id, name, price = Variable("item_id"), Variable("name"), Variable("price")
    return XBindQuery(
        "ItemPrices",
        (name, price),
        (
            PathAtom("//item", item, document=AUCTION_DOCUMENT),
            PathAtom("./@id", item_id, source=item),
            PathAtom("./name/text()", name, source=item),
            PathAtom("//closed_auction", auction, document=AUCTION_DOCUMENT),
            PathAtom("./itemref/text()", item_id, source=auction),
            PathAtom("./price/text()", price, source=auction),
        ),
    )


def query_buyers_with_items() -> XBindQuery:
    """Q5: buyers (name, city) together with the items they bought."""
    auction, person, item = Variable("a_el"), Variable("p_el"), Variable("i_el")
    person_id, item_id = Variable("person_id"), Variable("item_id")
    buyer_name, city, item_name = Variable("buyer"), Variable("city"), Variable("item")
    return XBindQuery(
        "BuyersWithItems",
        (buyer_name, city, item_name),
        (
            PathAtom("//closed_auction", auction, document=AUCTION_DOCUMENT),
            PathAtom("./buyer/text()", person_id, source=auction),
            PathAtom("./itemref/text()", item_id, source=auction),
            PathAtom("//person", person, document=AUCTION_DOCUMENT),
            PathAtom("./@id", person_id, source=person),
            PathAtom("./name/text()", buyer_name, source=person),
            PathAtom("./city/text()", city, source=person),
            PathAtom("//item", item, document=AUCTION_DOCUMENT),
            PathAtom("./@id", item_id, source=item),
            PathAtom("./name/text()", item_name, source=item),
        ),
    )


def query_out_of_town_buyers(city: str = "paris") -> XBindQuery:
    """Q6: buyers not living in the given city (inequality)."""
    auction, person = Variable("a_el"), Variable("p_el")
    person_id, buyer_name, buyer_city = (
        Variable("person_id"),
        Variable("buyer"),
        Variable("city"),
    )
    return XBindQuery(
        "OutOfTownBuyers",
        (buyer_name, buyer_city),
        (
            PathAtom("//closed_auction", auction, document=AUCTION_DOCUMENT),
            PathAtom("./buyer/text()", person_id, source=auction),
            PathAtom("//person", person, document=AUCTION_DOCUMENT),
            PathAtom("./@id", person_id, source=person),
            PathAtom("./name/text()", buyer_name, source=person),
            PathAtom("./city/text()", buyer_city, source=person),
            InequalityAtom(buyer_city, Constant(city)),
        ),
    )


def query_region_items(region: str = "europe") -> XBindQuery:
    """Q7: names of items listed in a given region (child-axis chain)."""
    item, name = Variable("i_el"), Variable("name")
    return XBindQuery(
        "RegionItems",
        (name,),
        (
            PathAtom(f"/site/regions/{region}/item", item, document=AUCTION_DOCUMENT),
            PathAtom("./name/text()", name, source=item),
        ),
    )


def query_suite() -> List[XBindQuery]:
    """The full query mix used by the XMark feasibility experiment."""
    return [
        query_item_names(),
        query_items_in_category(),
        query_person_cities(),
        query_item_prices(),
        query_buyers_with_items(),
        query_out_of_town_buyers(),
        query_region_items(),
    ]
