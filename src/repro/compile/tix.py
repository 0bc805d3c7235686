"""TIX: the built-in dependencies true in every XML document.

Paper section 2.2: the relations of GReX are not independent -- ``desc`` is
the reflexive-transitive closure of ``child``, every node has exactly one
tag, ancestors of a node lie on a single root-to-leaf path, and so on.  TIX
captures these facts as DEDs so that the chase can exploit them.  The paper
lists 13 such constraints; the set below covers the ones spelled out in the
paper ((base), (trans), (refl), (line), the key constraints on tag/text/id/
attr) plus the element-hood axioms needed for (refl) to fire, all
parameterised by document.

The ``(line)`` axiom is disjunctive.  Chasing with disjunctive dependencies
forks the chase tree, which the paper's configurations never require, so it
is excluded by default and can be requested explicitly.
"""

from __future__ import annotations

from typing import Iterable, List

from ..logical.atoms import EqualityAtom
from ..logical.dependencies import DED, Disjunct, tgd
from ..logical.terms import Variable
from .grex import GrexSchema

_X = Variable("x")
_Y = Variable("y")
_Z = Variable("z")
_U = Variable("u")
_T1 = Variable("t1")
_T2 = Variable("t2")
_N = Variable("n")


def tix_dependencies(
    schema: GrexSchema, include_disjunctive: bool = False
) -> List[DED]:
    """The TIX axioms for one document's GReX relations."""
    suffix = schema.suffix
    dependencies: List[DED] = [
        # (base): child is contained in desc.
        tgd(f"tix_base__{suffix}", [schema.child(_X, _Y)], [schema.desc(_X, _Y)]),
        # (trans): desc is transitive.
        tgd(
            f"tix_trans__{suffix}",
            [schema.desc(_X, _Y), schema.desc(_Y, _Z)],
            [schema.desc(_X, _Z)],
        ),
        # (refl): desc is reflexive on element nodes.
        tgd(f"tix_refl__{suffix}", [schema.el(_X)], [schema.desc(_X, _X)]),
        # Element-hood of the nodes mentioned by the other relations.
        tgd(f"tix_child_el_parent__{suffix}", [schema.child(_X, _Y)], [schema.el(_X)]),
        tgd(f"tix_child_el_child__{suffix}", [schema.child(_X, _Y)], [schema.el(_Y)]),
        tgd(f"tix_desc_el_source__{suffix}", [schema.desc(_X, _Y)], [schema.el(_X)]),
        tgd(f"tix_desc_el_target__{suffix}", [schema.desc(_X, _Y)], [schema.el(_Y)]),
        tgd(f"tix_root_el__{suffix}", [schema.root(_X)], [schema.el(_X)]),
        tgd(f"tix_tag_el__{suffix}", [schema.tag(_X, _T1)], [schema.el(_X)]),
        tgd(f"tix_text_el__{suffix}", [schema.text(_X, _T1)], [schema.el(_X)]),
        tgd(f"tix_attr_el__{suffix}", [schema.attr(_X, _N, _T1)], [schema.el(_X)]),
        tgd(f"tix_id_el__{suffix}", [schema.identity(_X, _T1)], [schema.el(_X)]),
        # Key constraints: a node has at most one tag, text value and identity,
        # and at most one value per attribute name.
        DED(
            f"tix_tag_key__{suffix}",
            [schema.tag(_X, _T1), schema.tag(_X, _T2)],
            [Disjunct([EqualityAtom(_T1, _T2)])],
        ),
        DED(
            f"tix_text_key__{suffix}",
            [schema.text(_X, _T1), schema.text(_X, _T2)],
            [Disjunct([EqualityAtom(_T1, _T2)])],
        ),
        DED(
            f"tix_id_key__{suffix}",
            [schema.identity(_X, _T1), schema.identity(_X, _T2)],
            [Disjunct([EqualityAtom(_T1, _T2)])],
        ),
        DED(
            f"tix_attr_key__{suffix}",
            [schema.attr(_X, _N, _T1), schema.attr(_X, _N, _T2)],
            [Disjunct([EqualityAtom(_T1, _T2)])],
        ),
        # A node has at most one parent, and the document has one root.
        DED(
            f"tix_parent_key__{suffix}",
            [schema.child(_X, _Z), schema.child(_Y, _Z)],
            [Disjunct([EqualityAtom(_X, _Y)])],
        ),
        DED(
            f"tix_root_key__{suffix}",
            [schema.root(_X), schema.root(_Y)],
            [Disjunct([EqualityAtom(_X, _Y)])],
        ),
    ]
    if include_disjunctive:
        # (line): ancestors of a node lie on the same root-to-leaf path.
        dependencies.append(
            DED(
                f"tix_line__{suffix}",
                [schema.desc(_X, _U), schema.desc(_Y, _U)],
                [
                    Disjunct([EqualityAtom(_X, _Y)]),
                    Disjunct([schema.desc(_X, _Y)]),
                    Disjunct([schema.desc(_Y, _X)]),
                ],
            )
        )
    return dependencies


def tix_for_documents(
    schemas: Iterable[GrexSchema], include_disjunctive: bool = False
) -> List[DED]:
    """TIX axioms for a collection of documents."""
    dependencies: List[DED] = []
    for schema in schemas:
        dependencies.extend(tix_dependencies(schema, include_disjunctive))
    return dependencies
