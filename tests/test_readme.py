"""README's "Report schema" section names exactly the keys the reports print.

Each bullet of that section starts with the backticked keys it describes;
a bullet indented two spaces deeper names a key of its parent's value, and
a key written ``name[]`` is a list whose items hold the nested keys.  The
key paths read that way must equal those that the schema tests pin.
"""

from __future__ import annotations

import re
from pathlib import Path

from test_certify import ATOM_CERTIFY_REPORT_PATHS, CERTIFY_REPORT_PATHS
from test_cli import SWEEP_REPORT_PATHS
from test_solver import SOLVE_REPORT_PATHS

README = Path(__file__).parents[1] / "README.md"
BULLET = re.compile(r"( *)- ((?:`[^`]+`, )*`[^`]+`):")


def schema_lists(text: str) -> list[set[str]]:
    """The key paths of each bullet list in the "Report schema" section."""
    section = text.split("\n## Report schema\n", 1)[1].split("\n## ", 1)[0]
    lists: list[set[str]] = []
    stack: list[list[str]] = []  # per depth, the prefixes its children extend
    for line in section.splitlines():
        m = BULLET.match(line)
        if m is None:
            if not line.startswith(" "):  # a blank line or a paragraph ends a list
                stack = []
            continue
        if not stack:
            lists.append(set())
        depth = len(m.group(1)) // 2
        prefixes = []
        for parent in stack[depth - 1] if depth else [""]:
            for key in re.findall(r"`([^`]+)`", m.group(2)):
                path = parent + key.removesuffix("[]")
                lists[-1].add(path)
                prefixes.append(parent + key + ".")
        stack = stack[:depth] + [prefixes]
    return lists


def test_report_schema_names_every_key():
    lists = schema_lists(README.read_text())
    for pinned in (SOLVE_REPORT_PATHS, SWEEP_REPORT_PATHS, CERTIFY_REPORT_PATHS,
                   ATOM_CERTIFY_REPORT_PATHS):
        closest = max(lists, key=lambda paths: len(paths & pinned))
        assert closest == pinned, (f"README names {sorted(closest - pinned)} that no report "
                                   f"prints and misses {sorted(pinned - closest)}")
