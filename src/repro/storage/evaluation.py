"""Evaluation of conjunctive queries over the in-memory database.

The evaluator performs a left-to-right sequence of hash joins over the
relational atoms of the query body, then filters with inequality atoms and
projects onto the head.  The same machinery is reused (over *symbolic*
instances) by the set-oriented chase implementation; here it runs over real
data to execute reformulations and to verify their equivalence in tests.

When the ambient execution tree (:func:`repro.obs.current_span`) is
profiled, each hash-join step emits one ``scan``/``join-step`` operator
node with its intermediate binding count as ``actual_rows``, the
scanned table's size as ``table_rows`` and, as ``estimated_rows``, the
figure the caller's *estimator* gives for that step
(:meth:`StorageBackend.estimate_pipeline`).  Evaluation stops at the
first step that leaves no bindings; a profiled tree still gets a node,
with ``actual_rows=0``, for every step after it.  Union evaluation wraps
each disjunct in a ``union-branch`` node.  The estimator is only consulted
in a profiled tree, so unprofiled evaluation pays nothing beyond one
ambient lookup per query.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import EvaluationError
from ..logical.atoms import EqualityAtom, InequalityAtom, RelationalAtom
from ..logical.queries import ConjunctiveQuery, UnionQuery
from ..logical.terms import Constant, Term, Variable, is_variable
from ..obs.trace import current_span
from ..profile import JOIN_STEP, SCAN, UNION_BRANCH
from .relational_db import InMemoryDatabase, Row

Binding = Dict[Variable, object]
#: Per-atom running row estimates of a query, in textual order.
PipelineEstimator = Callable[[ConjunctiveQuery], Sequence[float]]


def _match_atom(atom: RelationalAtom, row: Row, binding: Binding) -> Optional[Binding]:
    """Try to extend *binding* so the atom's terms match *row*; return None on clash."""
    extended = dict(binding)
    for term, value in zip(atom.terms, row):
        if is_variable(term):
            bound = extended.get(term, _MISSING)
            if bound is _MISSING:
                extended[term] = value
            elif bound != value:
                return None
        else:
            if term.value != value:
                return None
    return extended


_MISSING = object()


def _atom_join_key(atom: RelationalAtom, bound_vars: Iterable[Variable]) -> List[int]:
    """Positions of the atom's terms that are already bound (or constants)."""
    bound = set(bound_vars)
    positions = []
    for index, term in enumerate(atom.terms):
        if not is_variable(term) or term in bound:
            positions.append(index)
    return positions


def evaluate_query(
    query: ConjunctiveQuery,
    database: InMemoryDatabase,
    distinct: bool = True,
    estimator: Optional[PipelineEstimator] = None,
) -> List[Row]:
    """Evaluate *query* over *database* and return the list of head tuples.

    The join order is the textual order of the body atoms; for each atom a
    hash index is built on the positions already bound by earlier atoms,
    giving hash-join behaviour without materializing intermediate tables.
    """
    query = query.normalize_equalities()
    span = current_span()
    profiled = span.profiled
    estimates = estimator(query) if profiled and estimator else ()
    bindings: List[Binding] = [{}]
    bound_vars: List[Variable] = []
    for step, atom in enumerate(query.relational_body, start=1):
        if not database.has_table(atom.relation):
            raise EvaluationError(
                f"query {query.name} references unknown table {atom.relation!r}"
            )
        rows = database.table(atom.relation).rows
        key_positions = _atom_join_key(atom, bound_vars)
        if profiled:
            node = _step_node(span, step, atom, key_positions, estimates, len(rows))
        else:
            node = None
        index: Dict[Tuple[object, ...], List[Row]] = {}
        for row in rows:
            key = tuple(row[position] for position in key_positions)
            index.setdefault(key, []).append(row)
        new_bindings: List[Binding] = []
        for binding in bindings:
            key_values = []
            for position in key_positions:
                term = atom.terms[position]
                if is_variable(term):
                    key_values.append(binding[term])
                else:
                    key_values.append(term.value)
            for row in index.get(tuple(key_values), ()):  # hash probe
                extended = _match_atom(atom, row, binding)
                if extended is not None:
                    new_bindings.append(extended)
        bindings = new_bindings
        if node is not None:
            node.finish(actual_rows=len(bindings))
        for term in atom.terms:
            if is_variable(term) and term not in bound_vars:
                bound_vars.append(term)
        if not bindings:
            if profiled:
                _profile_unreached_steps(span, query, step, database, estimates, bound_vars)
            break

    results: List[Row] = []
    seen = set()
    for binding in bindings:
        if not _satisfies_filters(query, binding):
            continue
        row = _project_head(query, binding)
        if distinct:
            if row in seen:
                continue
            seen.add(row)
        results.append(row)
    return results


def _step_node(span, step, atom, key_positions, estimates, table_rows):
    """The profile node of one hash-join step."""
    return span.operator(
        JOIN_STEP if key_positions else SCAN,
        f"{atom.relation}[step {step}]",
        estimated_rows=estimates[step - 1] if estimates else None,
        relation=atom.relation,
        probe_positions=tuple(key_positions),
        table_rows=table_rows,
    )


def _profile_unreached_steps(span, query, empty_step, database, estimates, bound_vars):
    """Emit the nodes of the steps after *empty_step*, which never run.

    Each reads ``actual_rows=0`` with the estimate, table size and probe
    positions it would have had; no hash index is built.  A relation the
    database lacks gets no ``table_rows``: unprofiled evaluation never
    reaches it, so profiling does not raise for it either.
    """
    bound = set(bound_vars)
    atoms = query.relational_body[empty_step:]
    for step, atom in enumerate(atoms, start=empty_step + 1):
        key_positions = _atom_join_key(atom, bound)
        table_rows = (
            len(database.table(atom.relation).rows)
            if database.has_table(atom.relation)
            else None
        )
        _step_node(span, step, atom, key_positions, estimates, table_rows).finish(
            actual_rows=0
        )
        bound.update(term for term in atom.terms if is_variable(term))


def _satisfies_filters(query: ConjunctiveQuery, binding: Binding) -> bool:
    for atom in query.body:
        if isinstance(atom, InequalityAtom):
            if _term_value(atom.left, binding) == _term_value(atom.right, binding):
                return False
        elif isinstance(atom, EqualityAtom):
            if _term_value(atom.left, binding) != _term_value(atom.right, binding):
                return False
    return True


def _term_value(term: Term, binding: Binding) -> object:
    if is_variable(term):
        if term not in binding:
            raise EvaluationError(f"unbound variable {term} in filter")
        return binding[term]
    return term.value


def _project_head(query: ConjunctiveQuery, binding: Binding) -> Row:
    values = []
    for term in query.head:
        values.append(_term_value(term, binding))
    return tuple(values)


def evaluate_union(
    union: UnionQuery,
    database: InMemoryDatabase,
    distinct: bool = True,
    estimator: Optional[PipelineEstimator] = None,
) -> List[Row]:
    """Evaluate a union of conjunctive queries (set semantics when *distinct*)."""
    span = current_span()
    results: List[Row] = []
    seen = set()
    for position, disjunct in enumerate(union):
        with span.operator(UNION_BRANCH, disjunct.name, disjunct=position) as branch:
            produced = evaluate_query(disjunct, database, distinct, estimator)
            branch.finish(actual_rows=len(produced))
        for row in produced:
            if distinct:
                if row in seen:
                    continue
                seen.add(row)
            results.append(row)
    return results


def materialize_view(
    name: str,
    query: ConjunctiveQuery,
    database: InMemoryDatabase,
) -> None:
    """Evaluate *query* and store its result as table *name* in *database*.

    This is how the redundant storage of the paper's scenarios is created:
    materialized views are ordinary tables whose contents are the result of
    their defining queries over the base data.
    """
    rows = evaluate_query(query, database)
    if database.has_table(name):
        table = database.table(name)
        table.clear()
    else:
        table = database.create_table(name, len(query.head))
    table.insert_many(rows)
