"""Relational schema declarations.

A :class:`RelationalSchema` is a named collection of :class:`Relation`
declarations plus integrity constraints (keys and foreign keys, which are
also exported as DEDs so that the chase can use them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import SchemaError
from .atoms import EqualityAtom, RelationalAtom
from .dependencies import DED, Disjunct, tgd
from .terms import Variable


@dataclass(frozen=True)
class Relation:
    """A relation declaration: a name and an ordered tuple of attribute names."""

    name: str
    attributes: Tuple[str, ...]

    def __init__(self, name: str, attributes: Sequence[str]):
        attributes = tuple(attributes)
        if len(set(attributes)) != len(attributes):
            raise SchemaError(f"relation {name}: duplicate attribute names")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attributes)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        """Return the index of *attribute*, raising :class:`SchemaError` if absent."""
        try:
            return self.attributes.index(attribute)
        except ValueError as error:
            raise SchemaError(
                f"relation {self.name} has no attribute {attribute!r}"
            ) from error

    def atom(self, prefix: str = "") -> RelationalAtom:
        """A canonical atom over fresh variables named after the attributes."""
        return RelationalAtom(
            self.name, tuple(Variable(f"{prefix}{a}") for a in self.attributes)
        )

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})"


@dataclass(frozen=True)
class Key:
    """A key constraint: *attributes* functionally determine the whole tuple."""

    relation: str
    attributes: Tuple[str, ...]

    def __init__(self, relation: str, attributes: Sequence[str]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "attributes", tuple(attributes))


@dataclass(frozen=True)
class ForeignKey:
    """A foreign key from ``source.source_attributes`` to ``target.target_attributes``."""

    source: str
    source_attributes: Tuple[str, ...]
    target: str
    target_attributes: Tuple[str, ...]

    def __init__(
        self,
        source: str,
        source_attributes: Sequence[str],
        target: str,
        target_attributes: Sequence[str],
    ):
        source_attributes = tuple(source_attributes)
        target_attributes = tuple(target_attributes)
        if len(source_attributes) != len(target_attributes):
            raise SchemaError("foreign key: attribute lists must have the same length")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "source_attributes", source_attributes)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "target_attributes", target_attributes)


class RelationalSchema:
    """A collection of relations, keys and foreign keys."""

    def __init__(self, name: str = "schema"):
        self.name = name
        self._relations: Dict[str, Relation] = {}
        self._keys: List[Key] = []
        self._foreign_keys: List[ForeignKey] = []

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def add_relation(self, name: str, attributes: Sequence[str]) -> Relation:
        if name in self._relations:
            raise SchemaError(f"relation {name} already declared")
        relation = Relation(name, attributes)
        self._relations[name] = relation
        return relation

    def add_key(self, relation: str, attributes: Sequence[str]) -> Key:
        self.relation(relation)  # validate existence
        key = Key(relation, attributes)
        self._keys.append(key)
        return key

    def add_foreign_key(
        self,
        source: str,
        source_attributes: Sequence[str],
        target: str,
        target_attributes: Sequence[str],
    ) -> ForeignKey:
        self.relation(source)
        self.relation(target)
        foreign_key = ForeignKey(source, source_attributes, target, target_attributes)
        self._foreign_keys.append(foreign_key)
        return foreign_key

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError as error:
            raise SchemaError(f"unknown relation {name!r} in schema {self.name}") from error

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    @property
    def relations(self) -> Tuple[Relation, ...]:
        return tuple(self._relations.values())

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    @property
    def keys(self) -> Tuple[Key, ...]:
        return tuple(self._keys)

    # ------------------------------------------------------------------
    # Constraint export
    # ------------------------------------------------------------------
    def key_dependencies(self) -> List[DED]:
        """Export key constraints as equality-generating dependencies."""
        dependencies: List[DED] = []
        for index, key in enumerate(self._keys):
            relation = self.relation(key.relation)
            left_vars = [Variable(f"k{index}_l_{a}") for a in relation.attributes]
            right_vars = [Variable(f"k{index}_r_{a}") for a in relation.attributes]
            for attribute in key.attributes:
                position = relation.position(attribute)
                right_vars[position] = left_vars[position]
            premise = [
                RelationalAtom(relation.name, left_vars),
                RelationalAtom(relation.name, right_vars),
            ]
            equalities = [
                EqualityAtom(left_vars[i], right_vars[i])
                for i, attribute in enumerate(relation.attributes)
                if attribute not in key.attributes
            ]
            if not equalities:
                continue
            dependencies.append(
                DED(f"key_{relation.name}_{index}", premise, [Disjunct(equalities)])
            )
        return dependencies

    def foreign_key_dependencies(self) -> List[DED]:
        """Export foreign keys as inclusion (tuple-generating) dependencies."""
        dependencies: List[DED] = []
        for index, foreign_key in enumerate(self._foreign_keys):
            source = self.relation(foreign_key.source)
            target = self.relation(foreign_key.target)
            source_vars = [Variable(f"f{index}_s_{a}") for a in source.attributes]
            target_vars = [Variable(f"f{index}_t_{a}") for a in target.attributes]
            for src_attr, tgt_attr in zip(
                foreign_key.source_attributes, foreign_key.target_attributes
            ):
                target_vars[target.position(tgt_attr)] = source_vars[
                    source.position(src_attr)
                ]
            dependency = tgd(
                f"fk_{source.name}_{target.name}_{index}",
                [RelationalAtom(source.name, source_vars)],
                [RelationalAtom(target.name, target_vars)],
            )
            dependencies.append(dependency)
        return dependencies

    def dependencies(self) -> List[DED]:
        """All constraints of the schema as DEDs."""
        return self.key_dependencies() + self.foreign_key_dependencies()

    def __str__(self) -> str:
        return f"schema {self.name}: " + ", ".join(str(r) for r in self.relations)
