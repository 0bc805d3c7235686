#!/usr/bin/env python3
"""Check that relative markdown links, their anchors and cited ``*.md``
files resolve.

Usage:  python tools/check_links.py README.md docs/*.md src benchmarks examples

For every ``[text](target)`` in a markdown argument whose target is not
an absolute URL, the target path (resolved against the containing file's
directory) must exist.  A ``#fragment`` — in-page (``#x``) or on another
markdown file (``FILE.md#x``) — must be the GitHub slug of one of that
file's headings: lower-cased, punctuation dropped, spaces turned into
hyphens, and ``-1``, ``-2``, ... appended to repeats.  A directory
argument is searched for ``.py`` files, and every ``*.md`` name cited in
them (``DESIGN.md``, ``docs/COST_MODEL.md``) must exist next to the
citing file, at the repository root or under ``docs/``.  Exits non-zero
listing every broken link.  Stdlib only — this runs in the CI docs-lint
leg next to ``python -m doctest`` over the same files.
"""

import re
import sys
from collections import Counter
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")  # http:, https:, mailto:
# A bare or relative markdown file name; the look-behind keeps URL tails
# and longer paths from matching halfway through.
CITED = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w-]+\.md)\b")
HEADING = re.compile(r"^#{1,6}\s+(.*?)(?:\s+#+)?\s*$")
FENCE = re.compile(r"^\s*(```|~~~)")
LINK_TEXT = re.compile(r"\[([^\]]*)\]\([^)]*\)")
ROOT = Path(__file__).resolve().parent.parent


def slug(heading: str) -> str:
    """The anchor GitHub gives a heading (links count by their text)."""
    text = LINK_TEXT.sub(r"\1", heading).strip().lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def anchors(path: Path) -> frozenset:
    """The slugs of *path*'s headings, outside fenced code blocks."""
    seen: Counter = Counter()
    found = set()
    fenced = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE.match(line):
            fenced = not fenced
            continue
        match = None if fenced else HEADING.match(line)
        if match:
            base = slug(match.group(1))
            found.add(f"{base}-{seen[base]}" if seen[base] else base)
            seen[base] += 1
    return frozenset(found)


def broken_links(path: Path):
    base = path.parent
    for target in LINK.findall(path.read_text(encoding="utf-8")):
        if EXTERNAL.match(target):
            continue
        name, _, fragment = target.partition("#")
        resolved = base / name if name else path
        if not resolved.exists():
            yield target
        elif fragment and resolved.suffix == ".md":
            if fragment not in anchors(resolved):
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
        print(f"checked {checked} file(s): all relative links and anchors resolve")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
