"""Short-cutting the chase with the reflexive-transitive-closure axioms.

Paper section 3.2: the result of chasing a query solely with the
``(refl)``, ``(base)`` and ``(trans)`` axioms of TIX is predictable -- it
adds exactly the ``desc`` atoms missing from the reflexive, transitive
closure of the ``child``/``desc`` atoms already present.  Instead of paying
``O(n^2)`` chase steps we compute the closure directly on the symbolic
instance (an adjacency-structure traversal) and jump straight to chasing
with the remaining dependencies, alternating the two phases until a global
fixpoint is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..logical.atoms import Atom, RelationalAtom
from ..logical.dependencies import DED
from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Term
from .chase import ChaseConfig, ChaseEngine, ChaseResult, ChaseStatistics


@dataclass(frozen=True)
class ClosureSpec:
    """Relation names of one document's GReX encoding, for closure purposes."""

    child: str = "child"
    desc: str = "desc"
    el: str = "el"
    root: str = "root"
    tag: str = "tag"
    text: str = "text"
    attr: str = "attr"
    id: str = "id"

    def node_producing_relations(self) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """Relations whose listed argument positions hold element nodes."""
        return (
            (self.child, (0, 1)),
            (self.desc, (0, 1)),
            (self.el, (0,)),
            (self.root, (0,)),
            (self.tag, (0,)),
            (self.text, (0,)),
            (self.attr, (0,)),
            (self.id, (0,)),
        )


def descendant_closure(
    query: ConjunctiveQuery, specs: Sequence[ClosureSpec]
) -> Tuple[ConjunctiveQuery, int]:
    """Saturate *query* with the element and descendant atoms of the closure.

    For each document family in *specs*, every term known to denote an
    element node receives an ``el`` atom and a reflexive ``desc`` atom, and
    every pair of nodes connected by a path of ``child``/``desc`` edges
    receives a ``desc`` atom.  Returns the saturated query and the number of
    atoms added (the number of chase steps that were skipped).
    """
    added_atoms: List[Atom] = []
    existing: Set[Atom] = set(query.body)

    def add(atom: RelationalAtom) -> None:
        if atom not in existing:
            existing.add(atom)
            added_atoms.append(atom)

    for spec in specs:
        nodes: Dict[Term, None] = {}
        edges: Dict[Term, Set[Term]] = {}
        for atom in query.relational_body:
            for relation, positions in spec.node_producing_relations():
                if atom.relation == relation:
                    for position in positions:
                        if position < atom.arity:
                            nodes.setdefault(atom.terms[position], None)
            if atom.relation in (spec.child, spec.desc) and atom.arity == 2:
                edges.setdefault(atom.terms[0], set()).add(atom.terms[1])
        # Element-ness and reflexivity.
        for node in nodes:
            add(RelationalAtom(spec.el, (node,)))
            add(RelationalAtom(spec.desc, (node, node)))
        # Transitive closure by BFS from every node.
        for start in nodes:
            frontier = list(edges.get(start, ()))
            reached: Set[Term] = set()
            while frontier:
                node = frontier.pop()
                if node in reached:
                    continue
                reached.add(node)
                frontier.extend(edges.get(node, ()))
            for node in reached:
                add(RelationalAtom(spec.desc, (start, node)))
    if not added_atoms:
        return query, 0
    return query.add_atoms(added_atoms), len(added_atoms)


def closure_dependency_names() -> Tuple[str, ...]:
    """Names of the TIX axioms whose effect the closure subsumes."""
    return (
        "tix_base",
        "tix_trans",
        "tix_refl",
        "tix_child_el_parent",
        "tix_child_el_child",
        "tix_desc_el_source",
        "tix_desc_el_target",
        "tix_root_el",
        "tix_tag_el",
        "tix_text_el",
        "tix_attr_el",
        "tix_id_el",
    )


class ShortcutChaseEngine:
    """Chase engine that alternates direct closure computation with chasing.

    The conceptual implementation from the paper::

        repeat until no more chase step applies:
          (1) chase with (refl),(base),(trans) until termination
          (2) continue with all other DEDs until termination

    Phase (1) is replaced by :func:`descendant_closure`.
    """

    def __init__(
        self,
        specs: Sequence[ClosureSpec],
        config: Optional[ChaseConfig] = None,
        max_rounds: int = 50,
    ):
        self.specs = tuple(specs)
        self.config = config or ChaseConfig()
        self.max_rounds = max_rounds
        self._engine = ChaseEngine(self.config)

    def chase(
        self, query: ConjunctiveQuery, dependencies: Sequence[DED]
    ) -> ChaseResult:
        """Chase *query*, short-cutting the closure axioms."""
        prefixes = closure_dependency_names()
        other = [
            d
            for d in dependencies
            if not any(d.name == p or d.name.startswith(p + "__") for p in prefixes)
        ]
        statistics = ChaseStatistics()
        current_branches = [query]
        for _ in range(self.max_rounds):
            closed_branches: List[ConjunctiveQuery] = []
            closure_added = 0
            for branch in current_branches:
                closed, added = descendant_closure(branch, self.specs)
                closure_added += added
                closed_branches.append(closed)
            statistics.steps_applied += closure_added
            next_branches: List[ConjunctiveQuery] = []
            chase_added = 0
            for branch in closed_branches:
                result = self._engine.chase(branch, other)
                chase_added += result.statistics.steps_applied
                statistics.steps_applied += result.statistics.steps_applied
                statistics.homomorphisms_found += result.statistics.homomorphisms_found
                for name, count in result.statistics.dependencies_fired.items():
                    statistics.dependencies_fired[name] = (
                        statistics.dependencies_fired.get(name, 0) + count
                    )
                next_branches.extend(result.branches)
            current_branches = next_branches
            if chase_added == 0:
                # The chase phase added nothing, so the closure is already stable.
                break
        statistics.branches = max(1, len(current_branches))
        return ChaseResult(original=query, branches=current_branches, statistics=statistics)
