#!/usr/bin/env python3
"""Check that relative markdown links and cited ``*.md`` files resolve.

Usage:  python tools/check_links.py README.md docs/*.md src benchmarks examples

For every ``[text](target)`` in a markdown argument whose target is not
an absolute URL or a pure in-page anchor, the target path (resolved
against the containing file's directory, ``#fragment`` stripped) must
exist.  A directory argument is searched for ``.py`` files, and every
``*.md`` name cited in them (``DESIGN.md``, ``docs/COST_MODEL.md``) must
exist next to the citing file, at the repository root or under
``docs/``.  Exits non-zero listing every broken link.  Stdlib only —
this runs in the CI docs-lint leg next to ``python -m doctest`` over
the same files.
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")  # http:, https:, mailto:
# A bare or relative markdown file name; the look-behind keeps URL tails
# and longer paths from matching halfway through.
CITED = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")
ROOT = Path(__file__).resolve().parent.parent


def broken_links(path: Path):
    base = path.parent
    for target in LINK.findall(path.read_text(encoding="utf-8")):
        if EXTERNAL.match(target) or target.startswith("#"):
            continue
        resolved = base / target.split("#", 1)[0]
        if not resolved.exists():
            yield target


def broken_citations(path: Path):
    bases = (path.parent, ROOT, ROOT / "docs")
    for name in CITED.findall(path.read_text(encoding="utf-8")):
        if not any((base / name).exists() for base in bases):
            yield name


def main(arguments) -> int:
    if not arguments:
        print("usage: check_links.py FILE.md|DIR [FILE.md|DIR ...]", file=sys.stderr)
        return 2
    status = 0
    checked = 0
    for name in arguments:
        path = Path(name)
        if path.is_dir():
            sources = sorted(path.rglob("*.py"))
            problems = ((source, broken_citations(source)) for source in sources)
        elif path.exists():
            sources = [path]
            problems = [(path, broken_links(path))]
        else:
            print(f"{name}: file not found", file=sys.stderr)
            status = 1
            continue
        checked += len(sources)
        for source, targets in problems:
            for target in targets:
                print(f"{source}: broken link -> {target}", file=sys.stderr)
                status = 1
    if status == 0:
        print(f"checked {checked} file(s): all relative links resolve")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
