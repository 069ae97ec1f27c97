#!/usr/bin/env python3
"""Checks that relative markdown links and code paths resolve to real files.

Scans the given markdown files (or the repo's default doc set) for inline
links and images `[text](target)`, ignores external schemes (http, https,
mailto) and pure in-page anchors, and verifies every relative target exists
on disk relative to the file containing the link.

Outside the history files (CHANGES.md, ROADMAP.md), it also checks
backticked code paths such as `core/engine.h` or `bench/{a,b}.cc`: a token
whose first component is a directory of the repo root or of src/. `{a,b}`
brace lists expand, and a path resolves if it exists under the repo root or
under src/, as written or with .h, .cc or .cpp appended. Exits non-zero
listing every broken link and path.

Usage: tools/check_markdown_links.py [file.md ...]
"""

import os
import re
import sys

# Inline links/images. Markdown link destinations cannot contain unescaped
# whitespace or ')' outside <>; this pattern covers the repo's usage.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
# A backticked token made of path characters with at least one '/'.
CODE_PATH_RE = re.compile(r"`(\w[\w.{},-]*(?:/[\w.{},-]*)+)`")
BRACE_RE = re.compile(r"\{([^{}]*)\}")
CODE_PATH_ROOTS = ["", "src"]
CODE_PATH_SUFFIXES = ["", ".h", ".cc", ".cpp"]
# History: they name files that existed when they were written.
HISTORY_FILES = {"CHANGES.md", "ROADMAP.md"}

# SNIPPETS.md / PAPERS.md quote external material verbatim (including links
# to assets that live in other repos), so only the repo's own docs are
# checked by default.
DEFAULT_FILES = ["README.md", "ROADMAP.md", "CHANGES.md"]


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def default_targets(root):
    files = [f for f in DEFAULT_FILES if os.path.exists(os.path.join(root, f))]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                files.append(os.path.join("docs", name))
    return [os.path.join(root, f) for f in files]


def expand_braces(path):
    match = BRACE_RE.search(path)
    if not match:
        return [path]
    out = []
    for alt in match.group(1).split(","):
        out += expand_braces(path[:match.start()] + alt + path[match.end():])
    return out


def code_path_resolves(root, path):
    first = path.split("/", 1)[0]
    bases = [os.path.join(root, r) for r in CODE_PATH_ROOTS]
    # Only paths into the tree are code paths; `dir/shard_NNN` is prose.
    if not any(os.path.isdir(os.path.join(b, first)) for b in bases):
        return True
    return any(os.path.exists(os.path.join(b, path) + suffix)
               for b in bases for suffix in CODE_PATH_SUFFIXES)


def check_file(path, root):
    broken = []
    base = os.path.dirname(path)
    check_code = os.path.basename(path) not in HISTORY_FILES
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if EXTERNAL_RE.match(target) or target.startswith("#"):
                    continue
                # Strip an in-page anchor from a file target.
                file_part = target.split("#", 1)[0]
                if not file_part:
                    continue
                resolved = os.path.normpath(os.path.join(base, file_part))
                if not os.path.exists(resolved):
                    broken.append((lineno, "broken link", target))
            if not check_code:
                continue
            for match in CODE_PATH_RE.finditer(line):
                for code_path in expand_braces(match.group(1)):
                    if not code_path_resolves(root, code_path):
                        broken.append((lineno, "missing code path", code_path))
    return broken


def main(argv):
    root = repo_root()
    targets = [os.path.abspath(a) for a in argv[1:]] or default_targets(root)
    failures = 0
    for path in targets:
        for lineno, kind, target in check_file(path, root):
            rel = os.path.relpath(path, root)
            print(f"{rel}:{lineno}: {kind} -> {target}")
            failures += 1
    if failures:
        print(f"{failures} broken link(s) or code path(s)", file=sys.stderr)
        return 1
    print(f"checked {len(targets)} file(s): all relative links and code "
          "paths resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
