#!/usr/bin/env python
"""Lint: every NumPy sort in src/ must be deterministic under ties.

``np.sort`` / ``np.argsort`` default to an unstable introsort, so any
sort whose keys can tie is a reproducibility hazard — the two bugs this
rule grew from were an ``np.argsort`` fallback in the radius-graph
builder and the channel-pruning norm sort, both of which reordered tied
keys from run to run.  The rule:

* every ``np.sort(`` / ``np.argsort(`` call, and every method-form
  ``.argsort(`` (an ndarray-only name; ``.sort(`` is left out because
  lists have it too), must pass ``kind="stable"``, OR
* carry a ``# sort-ok: <reason>`` pragma on the call's first line or
  the line directly above it, asserting the sort is order-canonical
  (packed unique keys, a pure value sort whose equal elements are
  interchangeable, a permutation, ...).

Calls spanning several lines are handled by balanced-parenthesis
scanning, so a ``kind="stable"`` on a continuation line counts.

Usage:
    python tools/check_determinism.py            # lints src/
    python tools/check_determinism.py PATH ...   # lints the given trees
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Call heads the lint tracks.
_CALL_RE = re.compile(r"(?:\bnp\.(?:arg)?sort|\.argsort)\(")

#: Accepted stability argument, single or double quotes.
_STABLE_RE = re.compile(r"kind\s*=\s*(['\"])stable\1")

#: Allowlist pragma. Must carry a reason after the colon.
_PRAGMA_RE = re.compile(r"#\s*sort-ok:\s*\S")


def _call_text(source: str, open_paren: int) -> str:
    """The call's argument text from its opening paren to the balanced close.

    Falls back to the rest of the file when unbalanced (a syntax error —
    the linted call text is then a superset, which can only suppress a
    violation in a file Python would reject anyway).
    """
    depth = 0
    for pos in range(open_paren, len(source)):
        ch = source[pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return source[open_paren : pos + 1]
    return source[open_paren:]


def lint_source(source: str, path: str = "<string>") -> list[str]:
    """All violations in one file's source, as ``path:line: message``."""
    lines = source.splitlines()
    violations = []
    for match in _CALL_RE.finditer(source):
        call = _call_text(source, match.end() - 1)
        if _STABLE_RE.search(call):
            continue
        line_no = source.count("\n", 0, match.start()) + 1  # 1-indexed
        here = lines[line_no - 1]
        above = lines[line_no - 2] if line_no >= 2 else ""
        if _PRAGMA_RE.search(here) or _PRAGMA_RE.search(above):
            continue
        head = match.group(0)[:-1]
        violations.append(
            f"{path}:{line_no}: {head}(...) without kind=\"stable\" — "
            "add it, or mark an order-canonical sort with '# sort-ok: <reason>'"
        )
    return violations


def lint_paths(paths: list[Path]) -> list[str]:
    """Violations across every ``*.py`` file under the given trees."""
    violations = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            rel = file.relative_to(REPO_ROOT) if file.is_relative_to(REPO_ROOT) else file
            violations += lint_source(file.read_text(), str(rel))
    return violations


def main(argv: list[str]) -> int:
    paths = [Path(a).resolve() for a in argv] or [REPO_ROOT / "src"]
    violations = lint_paths(paths)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} non-deterministic sort(s)")
        return 1
    print("determinism lint: all NumPy sorts stable or allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
