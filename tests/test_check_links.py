"""``tools/check_links.py``: relative links and their ``#anchors`` resolve.

The docs-lint CI step runs the checker over README and ``docs/``; these
tests pin that a link to a heading that does not exist fails it, both
in-page and across files.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
try:
    import check_links
finally:
    sys.path.remove(str(ROOT / "tools"))

DOCS = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/COST_MODEL.md",
    "docs/OBSERVABILITY.md",
)


@pytest.fixture
def pages(tmp_path):
    (tmp_path / "GUIDE.md").write_text(
        "# Guide\n\n"
        "## Not reproduced: Figure 8\n\n"
        "## Live updates & replication\n\n"
        "## Setup\n\n## Setup\n\n"
        "```sh\n# not a heading\n```\n",
        encoding="utf-8",
    )

    def check(text):
        page = tmp_path / "PAGE.md"
        page.write_text(text, encoding="utf-8")
        return check_links.main([str(page)])

    return check


def test_repository_docs_resolve():
    assert check_links.main([str(ROOT / name) for name in DOCS]) == 0


def test_heading_slugs_follow_github():
    assert check_links.slug("Not reproduced: Figure 8") == "not-reproduced-figure-8"
    assert check_links.slug("Live updates & replication") == "live-updates--replication"
    assert check_links.slug("Client queries: `xbind`, [xmlmodel](x.md)") == (
        "client-queries-xbind-xmlmodel"
    )


def test_resolving_anchors_pass(pages):
    assert pages(
        "# Page\n\n[up](#page) [fig](GUIDE.md#not-reproduced-figure-8)\n"
        "[rep](GUIDE.md#live-updates--replication) [again](GUIDE.md#setup-1)\n"
    ) == 0


@pytest.mark.parametrize(
    "link",
    [
        "#not-reproduced-figure-9",
        "GUIDE.md#not-reproduced-figure-9",
        "GUIDE.md#setup-2",
        "GUIDE.md#not-a-heading",
    ],
)
def test_broken_anchor_is_reported(pages, capsys, link):
    assert pages(f"# Page\n\n[below]({link})\n") == 1
    assert f"broken link -> {link}" in capsys.readouterr().err
