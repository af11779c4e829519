#!/usr/bin/env python
"""Check that relative links and path references in the repo's markdown resolve.

Scans every tracked ``*.md`` file for:

* inline markdown links ``[text](target)`` whose target is a relative path
  (external URLs and pure ``#fragment`` anchors are skipped), and
* backticked repo paths like ```docs/SERVICE.md`` or ``benchmarks/run_loadgen.py``
  (two path components or more and a known source/doc suffix — the style the
  docs use to name files),

and fails if any referenced file or directory does not exist.  This is the
CI guard against documentation drift: renaming a module or a doc without
updating its references turns the build red instead of rotting quietly.

Exit status: 0 when every reference resolves, 1 otherwise (offenders listed).
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

#: Inline markdown links: [text](target).  Titles ("...") are stripped later.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Backticked repo paths: at least one '/', a known suffix, no spaces/globs.
TICKED_PATH = re.compile(
    r"`([A-Za-z0-9_.][A-Za-z0-9_./-]*/[A-Za-z0-9_.-]+"
    r"\.(?:py|md|json|c|yml|toml|txt))`"
)

#: Backticked references that are examples, not commitments.
TICKED_IGNORE_PREFIXES = ("/", "~", "http:", "https:")

#: The docs name in-package files by package-relative shorthand
#: (`engine/batch.py` for `src/repro/engine/batch.py`); resolve through
#: these roots, in order, before declaring a reference broken.
PATH_ROOTS = ("", "src", "src/repro")


def tracked_markdown(root: Path) -> list[Path]:
    try:
        out = subprocess.run(
            ["git", "ls-files", "*.md"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout
        files = [root / line for line in out.splitlines() if line]
        if files:
            # A tracked file deleted from the working tree holds no links;
            # links pointing to it are still checked (and reported broken).
            return [path for path in files if path.is_file()]
    except (OSError, subprocess.CalledProcessError):
        pass
    return sorted(p for p in root.rglob("*.md") if ".git" not in p.parts)


def strip_code_blocks(text: str) -> tuple[str, str]:
    """Split into (prose, fenced-code) so each gets the right checks.

    Links are only checked in prose (code blocks show command output);
    backticked paths only occur in prose by construction.
    """
    prose: list[str] = []
    code: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        (code if in_fence else prose).append(line)
    return "\n".join(prose), "\n".join(code)


def check_file(md: Path, root: Path) -> list[str]:
    prose, _code = strip_code_blocks(md.read_text(encoding="utf-8"))
    errors: list[str] = []

    for match in MD_LINK.finditer(prose):
        target = match.group(1).split("#", 1)[0]
        if not target or "://" in target or target.startswith(("mailto:", "#")):
            continue
        # Badge/action links of the form ../../actions/... leave the repo.
        resolved = (md.parent / target).resolve()
        try:
            resolved.relative_to(root)
        except ValueError:
            continue
        if not resolved.exists():
            errors.append(f"{md.relative_to(root)}: broken link -> {target}")

    for match in TICKED_PATH.finditer(prose):
        target = match.group(1)
        if target.startswith(TICKED_IGNORE_PREFIXES):
            continue
        if not any((root / base / target).exists() for base in PATH_ROOTS):
            errors.append(f"{md.relative_to(root)}: missing path -> `{target}`")

    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's grandparent)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve() if args.root else Path(__file__).resolve().parent.parent

    errors: list[str] = []
    files = tracked_markdown(root)
    for md in files:
        errors.extend(check_file(md, root))

    if errors:
        print(f"{len(errors)} broken documentation reference(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"checked {len(files)} markdown files: all references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
