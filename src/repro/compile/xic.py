"""XML Integrity Constraints (XICs) and their compilation to DEDs.

Paper section 2.1: XICs have the same general form as DEDs, with relational
atoms replaced by XPath-defined predicates.  They can express XML Schema
key/keyref constraints but also richer statements such as "every person has
an ssn child".  Section 2.2 (ii) compiles them to DEDs over GReX with the
same path-atom translation used for XBind queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..errors import CompilationError
from ..logical.atoms import EqualityAtom, InequalityAtom, RelationalAtom
from ..logical.dependencies import DED, Disjunct
from ..logical.terms import Variable
from ..xbind.atoms import PathAtom
from .xbind_compiler import GrexCompiler

XICAtom = Union[PathAtom, RelationalAtom, EqualityAtom, InequalityAtom]


@dataclass(frozen=True)
class XIC:
    """An XML integrity constraint: premise -> disjunction of conclusions.

    Premise and conclusions are conjunctions of path atoms, relational atoms
    and (in)equalities.  Variables occurring only in a conclusion are
    existentially quantified there, exactly as in DEDs.
    """

    name: str
    premise: Tuple[XICAtom, ...]
    disjuncts: Tuple[Tuple[XICAtom, ...], ...]

    def __init__(
        self,
        name: str,
        premise: Sequence[XICAtom],
        disjuncts: Sequence[Sequence[XICAtom]],
    ):
        premise = tuple(premise)
        disjuncts = tuple(tuple(d) for d in disjuncts)
        if not premise:
            raise CompilationError(f"XIC {name}: empty premise")
        if not disjuncts:
            raise CompilationError(f"XIC {name}: needs at least one conclusion")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "premise", premise)
        object.__setattr__(self, "disjuncts", disjuncts)

    def __str__(self) -> str:
        premise_text = " & ".join(str(a) for a in self.premise)
        conclusion_text = " | ".join(
            "(" + " & ".join(str(a) for a in d) + ")" for d in self.disjuncts
        )
        return f"[{self.name}] {premise_text} -> {conclusion_text}"


def xic_key(name: str, element_path: str, key_path: str, document: str = None) -> XIC:
    """Helper: the child element reached by *key_path* is a key for *element_path*.

    This is the shape of XIC (1) in the paper: two distinct elements cannot
    agree on the key value.
    """
    p, q, s = Variable("p"), Variable("q"), Variable("s")
    return XIC(
        name,
        [
            PathAtom(element_path, p, document=document),
            PathAtom(key_path, s, source=p),
            PathAtom(element_path, q, document=document),
            PathAtom(key_path, s, source=q),
        ],
        [[EqualityAtom(p, q)]],
    )


def xic_exists_child(
    name: str, element_path: str, child_path: str, document: str = None
) -> XIC:
    """Helper: every element on *element_path* has a child on *child_path*.

    This is the shape of XIC (2) in the paper ("each person has an ssn").
    """
    p, s = Variable("p"), Variable("s")
    return XIC(
        name,
        [PathAtom(element_path, p, document=document)],
        [[PathAtom(child_path, s, source=p)]],
    )


def compile_xic(xic: XIC, compiler: GrexCompiler) -> DED:
    """Compile an XIC to a DED over GReX.

    The premise's path atoms are compiled first; the variable-to-document
    mapping they induce is shared with the conclusions so that relative
    paths in a conclusion navigate the correct document.
    """
    used = [v.name for a in xic.premise for v in a.variables()]
    for disjunct in xic.disjuncts:
        used.extend(v.name for a in disjunct for v in a.variables())
    premise_atoms, documents = compiler.compile_atoms(xic.premise, used_names=used)
    premise_variable_names = [
        v.name
        for atom in premise_atoms
        for v in atom.variables()
    ]
    compiled_disjuncts: List[Disjunct] = []
    for index, disjunct in enumerate(xic.disjuncts):
        disjunct_atoms, _ = compiler.compile_atoms(
            disjunct,
            used_names=used + premise_variable_names + [f"__disjunct{index}"],
            variable_documents=dict(documents),
        )
        compiled_disjuncts.append(Disjunct(disjunct_atoms))
    return DED(xic.name, premise_atoms, compiled_disjuncts)


def compile_xics(xics: Sequence[XIC], compiler: GrexCompiler) -> List[DED]:
    """Compile a collection of XICs."""
    return [compile_xic(xic, compiler) for xic in xics]
