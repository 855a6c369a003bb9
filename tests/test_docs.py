"""Docs stay true: the tier-1 wiring of ``tools/check_docs.py``.

Runs the same link and code-fence checks as the CI docs job, plus unit
coverage of the checker itself (so a silently-lenient checker cannot
green-light rotten docs).
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


class TestRepositoryDocs:
    def test_gate_covers_readme_and_docs(self):
        names = {p.name for p in check_docs.doc_files()}
        assert "README.md" in names
        assert "ARCHITECTURE.md" in names
        assert "REPRODUCING.md" in names

    def test_all_docs_clean(self):
        findings = check_docs.run()
        assert findings == [], "\n".join(findings)


class TestCheckerCatchesRot:
    def make(self, tmp_path, text):
        page = tmp_path / "page.md"
        page.write_text(text)
        return page

    def test_broken_link_reported(self, tmp_path):
        page = self.make(tmp_path, "see [x](missing.md) for more\n")
        problems = check_docs.check_links(page)
        assert len(problems) == 1
        assert "missing.md" in problems[0][1]

    def test_missing_anchor_reported(self, tmp_path):
        (tmp_path / "other.md").write_text("# Real Heading\n")
        page = self.make(tmp_path, "[x](other.md#fake-heading)\n")
        problems = check_docs.check_links(page)
        assert len(problems) == 1
        assert "fake-heading" in problems[0][1]

    def test_valid_anchor_and_external_links_pass(self, tmp_path):
        (tmp_path / "other.md").write_text("## Replay groups: *one* context per mix\n")
        page = self.make(
            tmp_path,
            "[a](other.md#replay-groups-one-context-per-mix) "
            "[b](https://example.com/x) [c](other.md)\n",
        )
        assert check_docs.check_links(page) == []

    def test_syntax_error_fence_reported(self, tmp_path):
        page = self.make(tmp_path, "```python\ndef broken(:\n```\n")
        problems = check_docs.check_code_fences(page)
        assert len(problems) == 1
        assert "does not compile" in problems[0][1]

    def test_failing_doctest_fence_reported(self, tmp_path):
        page = self.make(tmp_path, "```python\n>>> 1 + 1\n3\n\n```\n")
        problems = check_docs.check_code_fences(page)
        assert len(problems) == 1
        assert "doctest failed" in problems[0][1]

    def test_passing_doctest_fence_executes(self, tmp_path):
        page = self.make(tmp_path, "```python\n>>> 2 + 2\n4\n\n```\n")
        assert check_docs.check_code_fences(page) == []

    def test_no_run_fence_is_only_compiled(self, tmp_path):
        page = self.make(
            tmp_path, "```python no-run\n>>> undefined_name\n0\n\n```\n"
        )
        # Would fail if executed; compile-only accepts it.
        assert check_docs.check_code_fences(page) == []

    def test_github_slugs(self):
        slug = check_docs.github_slug
        assert slug("The `RunSpec` → fingerprint → store lifecycle") == (
            "the-runspec--fingerprint--store-lifecycle"
        )
        assert slug("Plain Words") == "plain-words"
