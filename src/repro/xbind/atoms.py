"""Path atoms: the XPath-defined predicates of XBind queries and XICs.

Paper section 2.1: the body atoms of XBind queries are either purely
relational or predicates defined by XPath expressions.  A binary predicate
``[p](x, y)`` holds when ``y`` is reachable from node ``x`` along path
``p``; a unary predicate ``[p](y)`` holds when ``p`` is an absolute path
from the document root reaching ``y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from ..errors import SchemaError
from ..logical.terms import Term, Variable, is_variable
from ..xmlmodel.xpath import XPath, parse_xpath


@dataclass(frozen=True)
class PathAtom:
    """An XPath-defined predicate over one or two variables.

    ``source`` is ``None`` for unary (absolute) predicates.  ``document``
    optionally names the published document an absolute path navigates; when
    omitted it is resolved from context (single-document configurations) or
    propagated from the source variable during compilation.
    """

    path: XPath
    target: Term
    source: Optional[Term] = None
    document: Optional[str] = None

    def __init__(
        self,
        path: Union[XPath, str],
        target: Term,
        source: Optional[Term] = None,
        document: Optional[str] = None,
    ):
        if isinstance(path, str):
            path = parse_xpath(path)
        if source is None and not path.absolute:
            raise SchemaError(
                f"unary path predicate [{path}] must use an absolute path"
            )
        if source is not None and path.absolute:
            raise SchemaError(
                f"binary path predicate [{path}] must use a relative path"
            )
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "document", document)

    # ------------------------------------------------------------------
    @property
    def is_absolute(self) -> bool:
        return self.source is None

    def variables(self) -> Iterator[Variable]:
        if self.source is not None and is_variable(self.source):
            yield self.source
        if is_variable(self.target):
            yield self.target

    def substitute(self, mapping: Mapping[Term, Term]) -> "PathAtom":
        source = None if self.source is None else mapping.get(self.source, self.source)
        target = mapping.get(self.target, self.target)
        return PathAtom(self.path, target, source, self.document)

    def __str__(self) -> str:
        where = f"@{self.document}" if self.document else ""
        if self.source is None:
            return f"[{self.path}]{where}({self.target})"
        return f"[{self.path}]{where}({self.source}, {self.target})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)
