"""Equal terms are collapsed in one place: ``merge_equal_terms``.

Normalizing a query's equalities and every chase step (equality-generating,
mixed, or a disjunct's equalities) merge terms through the one union-find
in ``logical/terms.py``.  A second union-find under ``src/repro/logical``
or ``src/repro/engine``, or a revived pairwise merge, fails here.
"""

import ast
from pathlib import Path

from repro.logical.terms import Constant, Variable, merge_equal_terms

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("logical", "engine")
RETIRED = ("_merge_terms", "_apply_egd_bulk")


def pointer_chases(source):
    """Lines of ``while`` loops that follow parent pointers (``r = parent[r]``):
    the find of a union-find."""
    return [
        loop.lineno
        for loop in ast.walk(ast.parse(source))
        if isinstance(loop, ast.While)
        and any(
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.slice, ast.Name)
            and node.value.slice.id == node.targets[0].id
            for node in ast.walk(loop)
        )
    ]


class TestOneMerge:
    def test_source_scan(self):
        paths = [
            path for package in PACKAGES for path in sorted((SRC / package).rglob("*.py"))
        ]
        assert paths, f"nothing to scan under {SRC}"
        finds = {}
        for path in paths:
            source = path.read_text()
            for name in RETIRED:
                assert name not in source, f"{name} in {path}"
            if pointer_chases(source):
                finds[path.relative_to(SRC).as_posix()] = pointer_chases(source)
        assert list(finds) == ["logical/terms.py"], finds
        assert len(finds["logical/terms.py"]) == 1
        for caller in ("logical/queries.py", "engine/chase.py"):
            assert "merge_equal_terms(" in (SRC / caller).read_text(), caller

    def test_the_scan_sees_a_union_find(self):
        assert pointer_chases(
            "def find(item):\n"
            "    root = item\n"
            "    while parent.get(root, root) != root:\n"
            "        root = parent[root]\n"
            "    return root\n"
        ) == [3]


class TestMergeRule:
    x, y, z = (Variable(name) for name in "xyz")

    def test_constant_then_kept_variable_then_left(self):
        x, y, z = self.x, self.y, self.z
        assert merge_equal_terms([(x, Constant(1)), (y, x)]) == {
            x: Constant(1),
            y: Constant(1),
        }
        assert merge_equal_terms([(x, y)], keep={y}) == {x: y}
        assert merge_equal_terms([(x, y)], keep={x}) == {y: x}
        assert merge_equal_terms([(x, y), (z, y)]) == {x: z, y: z}

    def test_distinct_constants_clash(self):
        x = self.x
        assert merge_equal_terms([(x, Constant(1)), (x, Constant(2))]) is None
        assert merge_equal_terms([(Constant(1), Constant(1))]) == {}
        assert merge_equal_terms([]) == {}
