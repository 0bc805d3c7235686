"""The normative canonical form of compiled plans.

A compiled :class:`~repro.core.reformulation.MarsReformulation` is full of
incidental detail: variable names minted by whichever counter ran first,
body atoms in whatever order the chase emitted them, wall-clock timings,
cost annotations priced under whatever statistics happened to be attached.
None of that is *the plan*.  The canonical form strips a reformulation
down to what two independent compiles of the same query against the same
configuration must agree on:

* **variables** are renamed positionally — ``v0, v1, ...`` by first
  occurrence scanning the head, then the body — so the fresh-variable
  counters of the chase leave no trace;
* **body atoms** are sorted by a rename-independent structural signature:
  variables are first partitioned by Weisfeiler–Lehman-style color
  refinement (head positions, then iterated occurrence profiles), and
  atoms sort by their encoding under those colors.  Because the colors
  depend only on the body's structure — never on variable names or the
  incoming atom order — canonicalization is *idempotent*: re-encoding a
  decoded artifact reproduces it byte for byte;
* **symmetric atoms** (``=``, ``!=``) order their two sides canonically;
* **derived artifacts are excluded**: no timings, no cost estimates, no
  candidate rankings, no rendered SQL.  Those are recomputed when an
  artifact is loaded (see ``MarsSystem``) — a plan store must never pin
  yesterday's statistics to tomorrow's data.

Deterministic *integer* compile facts (chase steps, subqueries inspected)
are kept: they are properties of the compile, not of the clock, and the
golden-plan suite deliberately locks them so an engine refactor that
changes search behaviour shows up as a golden drift instead of slipping
by.

Everything here encodes to plain JSON-able values and serializes through
:func:`~repro.plan.stable_json.stable_dumps`.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..logical.atoms import (
    Atom,
    EqualityAtom,
    InequalityAtom,
    RelationalAtom,
)
from ..logical.dependencies import DED
from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Constant, Term, Variable, is_variable
from ..xbind.atoms import PathAtom
from ..xbind.query import XBindQuery
from .stable_json import stable_dumps

class CanonicalFormError(StorageError):
    """A canonical document could not be decoded back into a plan."""


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------
def _encode_term(term: Term, numbering: Dict[Variable, int]) -> List[Any]:
    if is_variable(term):
        index = numbering.get(term)
        if index is None:
            index = numbering[term] = len(numbering)
        return ["v", index]
    value = term.value
    return ["c", type(value).__name__, value]


def _decode_term(encoded: Sequence[Any]) -> Term:
    kind = encoded[0]
    if kind == "v":
        return Variable(f"v{encoded[1]}")
    if kind == "c":
        _kind, type_name, value = encoded
        if type_name == "int":
            return Constant(int(value))
        if type_name == "float":
            return Constant(float(value))
        if type_name == "str":
            return Constant(str(value))
        raise CanonicalFormError(
            f"unsupported constant type {type_name!r} in canonical term"
        )
    raise CanonicalFormError(f"unknown canonical term kind {kind!r}")


def _sorted_pair(left: List[Any], right: List[Any]) -> Tuple[List[Any], List[Any]]:
    """Order the two sides of a symmetric atom canonically."""
    if stable_dumps(left) <= stable_dumps(right):
        return left, right
    return right, left


# ----------------------------------------------------------------------
# Atoms
# ----------------------------------------------------------------------
def _encode_atom(atom: Atom, numbering: Dict[Variable, int]) -> List[Any]:
    """Encode a relational/equality/inequality/path atom."""
    if isinstance(atom, RelationalAtom):
        return [
            "rel",
            atom.relation,
            [_encode_term(t, numbering) for t in atom.terms],
        ]
    if isinstance(atom, EqualityAtom):
        left = _encode_term(atom.left, numbering)
        right = _encode_term(atom.right, numbering)
        return ["eq", *_sorted_pair(left, right)]
    if isinstance(atom, InequalityAtom):
        left = _encode_term(atom.left, numbering)
        right = _encode_term(atom.right, numbering)
        return ["neq", *_sorted_pair(left, right)]
    if isinstance(atom, PathAtom):
        source = (
            None
            if atom.source is None
            else _encode_term(atom.source, numbering)
        )
        return [
            "path",
            str(atom.path),
            atom.document,
            source,
            _encode_term(atom.target, numbering),
        ]
    raise CanonicalFormError(
        f"cannot canonicalize atom of type {type(atom).__name__}"
    )


def _decode_atom(encoded: Sequence[Any]) -> Any:
    kind = encoded[0]
    if kind == "rel":
        _kind, relation, terms = encoded
        return RelationalAtom(relation, tuple(_decode_term(t) for t in terms))
    if kind == "eq":
        return EqualityAtom(_decode_term(encoded[1]), _decode_term(encoded[2]))
    if kind == "neq":
        return InequalityAtom(_decode_term(encoded[1]), _decode_term(encoded[2]))
    if kind == "path":
        _kind, path, document, source, target = encoded
        return PathAtom(
            path,
            _decode_term(target),
            None if source is None else _decode_term(source),
            document,
        )
    raise CanonicalFormError(f"unknown canonical atom kind {kind!r}")


# ----------------------------------------------------------------------
# Variable colors (Weisfeiler–Lehman-style refinement)
# ----------------------------------------------------------------------
def _occurrences(atom: Atom) -> Iterator[Tuple[Variable, int]]:
    """Each variable occurrence in *atom*, with a position tag.

    Symmetric atoms tag both sides identically — the two sides of an
    (in)equality are interchangeable and must color identically when
    swapped.
    """
    if isinstance(atom, RelationalAtom):
        for index, term in enumerate(atom.terms):
            if is_variable(term):
                yield term, index
    elif isinstance(atom, (EqualityAtom, InequalityAtom)):
        for term in (atom.left, atom.right):
            if is_variable(term):
                yield term, -1
    elif isinstance(atom, PathAtom):
        if atom.source is not None and is_variable(atom.source):
            yield atom.source, 0
        if is_variable(atom.target):
            yield atom.target, 1


def _atom_signature(atom: Atom, colors: Dict[Variable, str]) -> List[Any]:
    """*atom* encoded with variables replaced by their refinement colors.

    The result depends only on the body's structure — never on variable
    names or atom order — which is what makes the final sort idempotent.
    """

    def term_signature(term: Term) -> List[Any]:
        if is_variable(term):
            return ["v", colors[term]]
        value = term.value
        return ["c", type(value).__name__, value]

    if isinstance(atom, RelationalAtom):
        return ["rel", atom.relation, [term_signature(t) for t in atom.terms]]
    if isinstance(atom, EqualityAtom):
        return ["eq", *_sorted_pair(term_signature(atom.left), term_signature(atom.right))]
    if isinstance(atom, InequalityAtom):
        return ["neq", *_sorted_pair(term_signature(atom.left), term_signature(atom.right))]
    if isinstance(atom, PathAtom):
        source = None if atom.source is None else term_signature(atom.source)
        return ["path", str(atom.path), atom.document, source, term_signature(atom.target)]
    raise CanonicalFormError(
        f"cannot canonicalize atom of type {type(atom).__name__}"
    )


def _color_digest(payload: Any) -> str:
    return hashlib.sha256(stable_dumps(payload).encode("ascii")).hexdigest()[:16]


def _refine_colors(
    head: Sequence[Term], body: Sequence[Any]
) -> Dict[Variable, str]:
    """Partition the body's variables by structural role.

    Initial colors come from head positions (an exported variable is
    distinguishable from an existential one); each refinement round
    folds in the sorted profile of the variable's occurrences — the
    signatures, under current colors, of every atom it appears in and
    where.  Refinement only ever splits color classes, so it stabilizes
    within ``len(variables)`` rounds; iteration stops as soon as a round
    creates no new class.
    """
    variables: Dict[Variable, None] = {}
    head_positions: Dict[Variable, List[int]] = {}
    for index, term in enumerate(head):
        if is_variable(term):
            variables.setdefault(term, None)
            head_positions.setdefault(term, []).append(index)
    for atom in body:
        for variable, _position in _occurrences(atom):
            variables.setdefault(variable, None)
    colors = {
        v: _color_digest(["head", head_positions.get(v, [])]) for v in variables
    }
    distinct = len(set(colors.values()))
    for _round in range(max(len(variables), 1)):
        profiles: Dict[Variable, List[List[Any]]] = {v: [] for v in variables}
        for atom in body:
            signature = stable_dumps(_atom_signature(atom, colors))
            for variable, position in _occurrences(atom):
                profiles[variable].append([signature, position])
        colors = {
            v: _color_digest([colors[v], sorted(profiles[v], key=stable_dumps)])
            for v in variables
        }
        refined = len(set(colors.values()))
        if refined == distinct:
            break
        distinct = refined
    return colors


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def _encode_query_parts(
    head: Sequence[Term], body: Sequence[Any]
) -> Tuple[List[Any], List[Any]]:
    """The ordering + renaming pipeline shared by every query-shaped object.

    Atoms sort by their color signature — a pure function of the body's
    structure — and variables then number by first occurrence over
    (head, sorted body).  Because neither step reads variable names or
    the incoming order (beyond stable-sort tie-breaking of structurally
    identical atoms), re-canonicalizing canonical output is the
    identity.
    """
    ordered = list(body)
    if len(ordered) > 1:
        colors = _refine_colors(head, ordered)
        ordered.sort(key=lambda atom: stable_dumps(_atom_signature(atom, colors)))
    numbering: Dict[Variable, int] = {}
    encoded_head = [_encode_term(t, numbering) for t in head]
    encoded_body = [_encode_atom(a, numbering) for a in ordered]
    return encoded_head, encoded_body


def canonical_query(query: ConjunctiveQuery) -> Dict[str, Any]:
    """The canonical document of one conjunctive query."""
    head, body = _encode_query_parts(query.head, query.body)
    return {"name": query.name, "head": head, "body": body}


def query_from_canonical(document: Dict[str, Any]) -> ConjunctiveQuery:
    """Rebuild a conjunctive query from its canonical document.

    Variables come back with their canonical names (``v0, v1, ...``);
    execution semantics do not depend on variable names, so the decoded
    plan computes exactly the rows the encoded plan did.
    """
    try:
        return ConjunctiveQuery(
            document["name"],
            tuple(_decode_term(t) for t in document["head"]),
            tuple(_decode_atom(a) for a in document["body"]),
        )
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise CanonicalFormError(
            f"malformed canonical query document: {error}"
        ) from error


def canonical_xbind(query: XBindQuery) -> Dict[str, Any]:
    """The canonical document of one client XBind query."""
    head, body = _encode_query_parts(query.head, query.body)
    return {"name": query.name, "head": head, "body": body}


def xbind_from_canonical(document: Dict[str, Any]) -> XBindQuery:
    try:
        return XBindQuery(
            document["name"],
            tuple(_decode_term(t) for t in document["head"]),
            tuple(_decode_atom(a) for a in document["body"]),
        )
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise CanonicalFormError(
            f"malformed canonical XBind document: {error}"
        ) from error


# ----------------------------------------------------------------------
# Dependencies (encode-only: used by the configuration fingerprint)
# ----------------------------------------------------------------------
def canonical_ded(dependency: DED) -> Dict[str, Any]:
    """The canonical document of one DED.

    Universal variables are numbered over the (sorted) premise;
    existentials continue the numbering per disjunct.  Disjuncts are
    sorted by their encodings, so the fingerprint of a configuration does
    not depend on declaration-iteration order.
    """
    premise = list(dependency.premise)
    if len(premise) > 1:
        colors = _refine_colors((), premise)
        premise.sort(key=lambda atom: stable_dumps(_atom_signature(atom, colors)))
    numbering: Dict[Variable, int] = {}
    encoded_premise = [_encode_atom(a, numbering) for a in premise]
    disjuncts: List[List[Any]] = []
    for disjunct in dependency.disjuncts:
        scoped = dict(numbering)
        disjuncts.append([_encode_atom(a, scoped) for a in disjunct.atoms])
    disjuncts.sort(key=stable_dumps)
    return {
        "name": dependency.name,
        "premise": encoded_premise,
        "disjuncts": disjuncts,
    }


# ----------------------------------------------------------------------
# Reformulations
# ----------------------------------------------------------------------
#: Bumped whenever the artifact schema changes shape; old-format artifacts
#: are treated as misses (recompiled and rewritten), never mis-decoded.
ARTIFACT_FORMAT = 1


def canonical_reformulation(reformulation: Any) -> Dict[str, Any]:
    """The canonical artifact body of one compiled reformulation.

    Carries the complete compile outcome — client query, compiled query,
    universal plan, initial and minimal reformulations, the chosen best —
    plus the deterministic integer compile statistics.  Timings, cost
    estimates, candidate rankings and rendered SQL are *derived* and
    deliberately absent.
    """
    return {
        "format": ARTIFACT_FORMAT,
        "query": canonical_xbind(reformulation.query),
        "compiled": canonical_query(reformulation.compiled_query),
        "universal_plan": canonical_query(reformulation.universal_plan),
        "initial": (
            None
            if reformulation.initial is None
            else canonical_query(reformulation.initial)
        ),
        "minimal": [canonical_query(q) for q in reformulation.minimal],
        "best": (
            None
            if reformulation.best is None
            else canonical_query(reformulation.best)
        ),
        "chase_steps": int(reformulation.chase_steps),
        "subqueries_inspected": int(reformulation.subqueries_inspected),
    }


def reformulation_from_canonical(
    document: Dict[str, Any], query: Optional[XBindQuery] = None
) -> Any:
    """Rebuild a :class:`MarsReformulation` from an artifact body.

    *query* substitutes the caller's own query object for the canonical
    one (the service passes the query it is actually serving, so audit
    and feedback keep keying on the caller's names).  Timing fields are
    zero — a loaded plan did no chasing — and cost/SQL fields are left
    for the system to re-derive under its current statistics.
    """
    from ..core.reformulation import MarsReformulation

    if document.get("format") != ARTIFACT_FORMAT:
        raise CanonicalFormError(
            f"unsupported artifact format {document.get('format')!r} "
            f"(this build reads format {ARTIFACT_FORMAT})"
        )
    try:
        return MarsReformulation(
            query=(
                query
                if query is not None
                else xbind_from_canonical(document["query"])
            ),
            compiled_query=query_from_canonical(document["compiled"]),
            universal_plan=query_from_canonical(document["universal_plan"]),
            initial=(
                None
                if document["initial"] is None
                else query_from_canonical(document["initial"])
            ),
            minimal=[query_from_canonical(q) for q in document["minimal"]],
            best=(
                None
                if document["best"] is None
                else query_from_canonical(document["best"])
            ),
            # Ranking sets it when a best plan exists; without one it
            # stays what a fresh compile that finds nothing reports.
            best_cost=math.inf,
            sql=None,
            time_to_universal_plan=0.0,
            time_to_initial=0.0,
            time_to_best=0.0,
            chase_steps=int(document["chase_steps"]),
            subqueries_inspected=int(document["subqueries_inspected"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CanonicalFormError(
            f"malformed canonical artifact: {error}"
        ) from error
