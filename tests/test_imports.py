"""Every import under ``src/repro/`` is used where it is made."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path


class TestNoUnusedImports:
    """A module imports only names it uses: an imported name that no code
    and no string of its module mentions fails here.  ``__init__.py``
    files are skipped, their imports are the package's re-exports."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

    @staticmethod
    def unused_imports(source):
        """``(line, name)`` of each imported name *source* never uses.

        A name counts as used when it is read as a name anywhere in the
        module, or appears as a word in one of its strings (string
        annotations, ``__all__``, doctests).
        """
        tree = ast.parse(source)
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((node.lineno, name))
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported.append((node.lineno, alias.asname or alias.name))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        strings = [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        return [
            (line, name)
            for line, name in imported
            if name not in used
            and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in strings)
        ]

    def test_source_scan(self):
        paths = [
            path
            for path in sorted(self.SRC.rglob("*.py"))
            if path.name != "__init__.py"
        ]
        assert paths, f"nothing to scan under {self.SRC}"
        offenders = [
            f"{path.relative_to(self.SRC)}:{line}: {name}"
            for path in paths
            for line, name in self.unused_imports(path.read_text())
        ]
        assert not offenders, "\n".join(offenders)

    def test_the_scan_catches_what_it_is_for(self):
        source = (
            "from __future__ import annotations\n"
            "import os, os.path\n"
            "import json as codec\n"
            "from typing import List, Optional, Tuple\n"
            "from .atoms import Atom\n"
            "def f(x: List[int]) -> 'Tuple[int]':\n"
            "    return os.sep\n"
        )
        assert self.unused_imports(source) == [
            (3, "codec"),
            (4, "Optional"),
            (5, "Atom"),
        ]
        assert self.unused_imports("import re\nre.compile('x')\n") == []


class TestImportFootprint:
    """``import repro`` loads no HTTP server stack: the admin endpoint's
    modules come in only when a service asks for an admin port."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    HEAVY = ("http.server", "socketserver", "ssl")

    def loaded(self, statement):
        """Which of :attr:`HEAVY` a fresh interpreter holds after *statement*."""
        probe = (
            f"import sys\n{statement}\n"
            f"print(' '.join(m for m in {self.HEAVY!r} if m in sys.modules))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(self.SRC)},
        )
        return completed.stdout.split()

    def test_import_repro_loads_no_http_server(self):
        assert self.loaded("import repro") == []

    def test_admin_server_is_still_importable_from_obs(self):
        assert "http.server" in self.loaded("from repro.obs import AdminServer")
