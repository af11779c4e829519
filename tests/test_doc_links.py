"""The documentation link checker (``tools/check_doc_links.py``)."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

CHECKER = Path(__file__).resolve().parents[1] / "tools" / "check_doc_links.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deleted_tracked_markdown_is_reported_not_raised(tmp_path, checker, capsys):
    """A tracked markdown file missing from the working tree is skipped;
    links to it, and every other broken link, are still reported."""
    (tmp_path / "README.md").write_text(
        "See [notes](NOTES.md) and [gone](missing.md).\n", encoding="utf-8"
    )
    (tmp_path / "NOTES.md").write_text("[back](README.md)\n", encoding="utf-8")
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "add", "README.md", "NOTES.md"], cwd=tmp_path, check=True)
    (tmp_path / "NOTES.md").unlink()

    assert checker.main(["--root", str(tmp_path)]) == 1
    report = capsys.readouterr().out
    assert "2 broken documentation reference(s)" in report
    assert "README.md: broken link -> NOTES.md" in report
    assert "README.md: broken link -> missing.md" in report
