"""Docs quality gate: intra-repo links and runnable code fences.

Checks every tracked Markdown page (README plus ``docs/``) for two
classes of rot:

* **Broken intra-repo links** — every relative ``[text](target)`` must
  resolve to a real file or directory, and a ``#fragment`` pointing
  into a Markdown file must match one of its headings
  (GitHub-style slugs).  External ``http(s)``/``mailto`` links are not
  fetched.
* **Stale code fences** — every fenced ```` ```python ```` block must
  at least compile; blocks written as doctest sessions (``>>>`` lines)
  are *executed* with :mod:`doctest`, so the documented behaviour is
  re-verified on every CI run.  Fences annotated ```` ```python
  no-run ```` are compile-checked only.

Run from the repository root (CI does)::

    python tools/check_docs.py

Exit status is non-zero on any failure; findings are printed one per
line as ``file:line: message``.  The same checks run inside the tier-1
suite via ``tests/test_docs.py``.
"""

from __future__ import annotations

import doctest
import io
import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Markdown pages under the gate.  README is the front door; docs/ is
#: the architecture/reproduction set.  (PAPER/PAPERS/SNIPPETS are
#: generated inputs, CHANGES/ROADMAP are process logs — not gated.)
DOC_GLOBS = ("README.md", "docs/*.md")

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```python([^\n]*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def doc_files() -> List[Path]:
    """The Markdown files the gate applies to, in stable order."""
    files: List[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(ROOT.glob(pattern)))
    return files


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (lowercase, hyphenated).

    >>> github_slug("Replay groups: *one* context per mix")
    'replay-groups-one-context-per-mix'
    """
    text = re.sub(r"[`*_~]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return re.sub(r" ", "-", text)


def heading_slugs(path: Path) -> List[str]:
    """All anchor slugs a Markdown file exposes."""
    return [github_slug(m.group(1)) for m in _HEADING.finditer(path.read_text())]


def _line_of(text: str, position: int) -> int:
    return text.count("\n", 0, position) + 1


def check_links(path: Path) -> List[Tuple[int, str]]:
    """(line, message) for every broken relative link in one file."""
    text = path.read_text()
    problems: List[Tuple[int, str]] = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        line = _line_of(text, match.start())
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        dest = path if not file_part else (path.parent / file_part).resolve()
        if not dest.exists():
            problems.append((line, f"broken link target: {target}"))
            continue
        if fragment and dest.suffix == ".md":
            if github_slug(fragment) not in heading_slugs(dest):
                problems.append(
                    (line, f"missing anchor #{fragment} in {dest.name}")
                )
    return problems


def check_code_fences(path: Path) -> List[Tuple[int, str]]:
    """(line, message) for every failing ```python fence in one file.

    Doctest-style blocks run for real; plain blocks are compiled.
    """
    text = path.read_text()
    problems: List[Tuple[int, str]] = []
    for index, match in enumerate(_FENCE.finditer(text)):
        info, block = match.group(1).strip(), match.group(2)
        line = _line_of(text, match.start())
        name = f"{path.name}[fence {index} @ line {line}]"
        if ">>>" in block:
            if "no-run" in info:
                source = "".join(
                    example.source
                    for example in doctest.DocTestParser().get_examples(block)
                )
                try:
                    compile(source, name, "exec")
                except SyntaxError as exc:
                    problems.append((line, f"fence does not compile: {exc}"))
            else:
                failures = _run_doctest(block, name)
                problems.extend((line, message) for message in failures)
        else:
            try:
                compile(block, name, "exec")
            except SyntaxError as exc:
                problems.append((line, f"fence does not compile: {exc}"))
    return problems


def _run_doctest(block: str, name: str) -> List[str]:
    """Execute one doctest-style fence; return failure descriptions."""
    parser = doctest.DocTestParser()
    try:
        test = parser.get_doctest(
            block, {"__name__": "__docs__"}, name, name, 0
        )
    except ValueError as exc:
        return [f"unparseable doctest block: {exc}"]
    out = io.StringIO()
    runner = doctest.DocTestRunner(
        verbose=False, optionflags=doctest.ELLIPSIS
    )
    results = runner.run(test, out=out.write)
    if results.failed:
        return [f"doctest failed ({results.failed} example(s)):\n{out.getvalue()}"]
    return []


def run(paths: Iterable[Path] = ()) -> List[str]:
    """Run every check; return findings as ``file:line: message``."""
    findings: List[str] = []
    for path in paths or doc_files():
        rel = path.relative_to(ROOT)
        for line, message in check_links(path) + check_code_fences(path):
            findings.append(f"{rel}:{line}: {message}")
    return findings


def main() -> int:
    """CLI entry point: print findings, exit non-zero on any."""
    sys.path.insert(0, str(ROOT / "src"))  # fences import repro
    findings = run()
    for finding in findings:
        print(finding)
    checked = len(doc_files())
    if findings:
        print(f"docs check FAILED: {len(findings)} finding(s) in {checked} file(s)")
        return 1
    print(f"docs check passed: {checked} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
