"""Evaluation of conjunctive queries over the in-memory database.

The evaluator compiles the relational atoms of the query body into the
set-oriented chase's :class:`~repro.engine.join_tree.CompiledConjunction`
and runs its hash-join steps over the tables, then filters with
inequality atoms and projects onto the head.  The same machinery is
reused: the chase runs those steps over *symbolic* instances, here they
run over real data to execute reformulations and to verify their
equivalence in tests.

A binding is the kernel's tuple of slot values (the compiled
conjunction's ``variables`` name the slots), so the filters and the head
projection are compiled to read the slots they need; no binding is turned
into a dictionary.  The compiled steps, filter and projection are a
:class:`Kernel`, derived once per plan and kept on the plan's
:class:`~repro.logical.queries.DerivedPlan`: a plan evaluated again,
on any database, compiles nothing.

When the ambient execution tree (:func:`repro.obs.current_span`) is
profiled, each hash-join step emits one ``scan``/``join-step`` operator
node with its intermediate binding count as ``actual_rows``, the
scanned table's size as ``table_rows`` and, as ``estimated_rows``, the
figure the caller's *estimator* gives for that step of the executed order
(:meth:`StorageBackend.estimate_pipeline`).  Evaluation stops at the
first step that leaves no bindings; a profiled tree still gets a node,
with ``actual_rows=0``, for every step after it.  The estimator is only consulted
in a profiled tree, so unprofiled evaluation pays nothing beyond one
ambient lookup per query.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.join_tree import Binding, CompiledConjunction, tuple_getter
from ..errors import EvaluationError
from ..logical.atoms import EqualityAtom, InequalityAtom
from ..logical.queries import ConjunctiveQuery
from ..logical.terms import Constant, Term, Variable, is_variable
from ..obs.trace import current_span
from ..profile import JOIN_STEP, SCAN
from .relational_db import InMemoryDatabase, Row, RowIndex

#: Per-atom running row estimates of a query, in body order.
PipelineEstimator = Callable[[ConjunctiveQuery], Sequence[float]]


class _TableSource:
    """The tables of a database as the row source of compiled join steps.

    Rows hold plain values, so a query constant matches through its
    ``value``.  Each hash index is asked of its table once per evaluation
    (:meth:`Table.index`; an :class:`IndexedTable` keeps it until its next
    write) and stored here only once complete.
    """

    def __init__(self, database: InMemoryDatabase):
        self.database = database
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], RowIndex] = {}

    def index(self, relation: str, positions: Tuple[int, ...]) -> RowIndex:
        index = self._indexes.get((relation, positions))
        if index is None:
            index = self.database.table(relation).index(positions)
            self._indexes[relation, positions] = index
        return index

    @staticmethod
    def row_form(terms: Tuple[Term, ...]) -> Tuple[object, ...]:
        return tuple(
            term.value if isinstance(term, Constant) else term for term in terms
        )


class Kernel:
    """A normalized plan compiled to the join kernel.

    ``steps`` are its hash-join probes in execution order; ``holds`` tests
    its equality and inequality atoms on a finished binding (``None`` when
    it has none) and ``project`` reads its head from one.
    """

    __slots__ = ("steps", "holds", "project")

    def __init__(self, query: ConjunctiveQuery):
        conjunction = CompiledConjunction(query.relational_body)
        self.steps = conjunction.steps
        slots = {variable: slot for slot, variable in enumerate(conjunction.variables)}
        self.holds = _filter(query, slots)
        self.project = _projection(query.head, slots)


def evaluate_query(
    query: ConjunctiveQuery,
    database: InMemoryDatabase,
    distinct: bool = True,
    estimator: Optional[PipelineEstimator] = None,
) -> List[Row]:
    """Evaluate *query* over *database* and return the list of head tuples.

    The join order and the probes are the chase's: most-bound atom first,
    each atom probed through a hash index on the positions that constants
    and earlier atoms bind, without materializing intermediate tables.
    This is the memory path's one check for tables *database* lacks.
    """
    record = query.derived()
    for relation in record.relations:
        if not database.has_table(relation):
            raise EvaluationError(
                f"query {query.name} references unknown table {relation!r}"
            )
    kernel = record.derive("kernel", None, Kernel, record.normalized)
    steps = kernel.steps
    span = current_span()
    profiled = span.profiled
    estimates = (
        estimator(record.normalized.with_body([step.atom for step in steps]))
        if profiled and estimator
        else ()
    )
    source = _TableSource(database)
    bindings: List[Binding] = [()]
    for number, step in enumerate(steps, start=1):
        node = _step_node(span, number, step, estimates, database) if profiled else None
        bindings = step.extend(source, bindings)
        if node is not None:
            node.finish(actual_rows=len(bindings))
        if not bindings:
            if profiled:
                _profile_unreached_steps(span, steps, number, estimates, database)
            return []

    holds = kernel.holds
    if holds is not None:
        bindings = [binding for binding in bindings if holds(binding)]
    rows = map(kernel.project, bindings)
    return list(dict.fromkeys(rows) if distinct else rows)


def _step_node(span, number, step, estimates, database):
    """The profile node of one hash-join step."""
    relation = step.atom.relation
    return span.operator(
        JOIN_STEP if step.key_positions else SCAN,
        f"{relation}[step {number}]",
        estimated_rows=estimates[number - 1] if estimates else None,
        relation=relation,
        probe_positions=step.key_positions,
        table_rows=len(database.table(relation)),
    )


def _profile_unreached_steps(span, steps, empty_step, estimates, database):
    """Emit the nodes of the compiled steps after *empty_step*, which never run.

    Each reads ``actual_rows=0`` with the estimate, table size and probe
    positions it would have had; no hash index is built.
    """
    for number, step in enumerate(steps[empty_step:], start=empty_step + 1):
        _step_node(span, number, step, estimates, database).finish(actual_rows=0)


def _filter(
    query: ConjunctiveQuery, slots: Dict[Variable, int]
) -> Optional[Callable[[Binding], bool]]:
    """The test of the query's equality and inequality atoms on a binding,
    or ``None`` when it has none."""
    tests = [
        (isinstance(atom, EqualityAtom), _projection((atom.left, atom.right), slots))
        for atom in query.body
        if isinstance(atom, (EqualityAtom, InequalityAtom))
    ]
    if not tests:
        return None

    def holds(binding: Binding) -> bool:
        for equal, sides in tests:
            left, right = sides(binding)
            if (left == right) != equal:
                return False
        return True

    return holds


def _projection(
    terms: Sequence[Term], slots: Dict[Variable, int]
) -> Callable[[Binding], Row]:
    """The values of *terms* under a binding, read by slot.

    A constant is read from after the binding's last slot, as in a
    :class:`~repro.engine.join_tree.JoinStep` probe key.
    """
    width = len(slots)
    positions: List[int] = []
    constants: List[object] = []
    for term in terms:
        if not is_variable(term):
            positions.append(width + len(constants))
            constants.append(term.value)
        elif term in slots:
            positions.append(slots[term])
        else:
            raise EvaluationError(f"unbound variable {term}")
    pick = tuple_getter(positions)
    if not constants:
        return pick
    suffix = tuple(constants)
    return lambda binding: pick(binding + suffix)


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
