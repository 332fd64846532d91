#!/usr/bin/env python3
"""Counts the production lines of the workspace.

A production line is a non-blank, non-comment line of a `*.rs` file under
`crates/*/src`, `src/` or `examples/` that is not part of a `#[cfg(test)]`
item. A file that is only declared by a `#[cfg(test)] mod name;` line is
test code too and is left out whole.

Prints one line per crate (the root package's `src/` and `examples/` are
listed under their directory names) and the total.

    python3 .github/scripts/prod_lines.py [REPO_ROOT]
"""

import os
import re
import sys


def blank(literal):
    """A string literal with every character but its line breaks replaced,
    so braces inside it are not counted and its lines stay non-blank."""
    return re.sub(r"[^\n]", "x", literal)


def strip_code(text):
    """Returns the lines of `text` with comments removed and string and char
    literals blanked (see `blank`)."""
    out = []
    i, n = 0, len(text)
    depth = 0  # block-comment nesting
    while i < n:
        c = text[i]
        if depth:
            if text.startswith("*/", i):
                depth -= 1
                i += 2
            elif text.startswith("/*", i):
                depth += 1
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            depth = 1
            i += 2
            continue
        raw = re.match(r'b?r(#*)"', text[i:i + 40])
        if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            close = '"' + raw.group(1)
            j = text.find(close, i + raw.end())
            j = n if j < 0 else j + len(close)
            out.append(blank(text[i:j]))
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(blank(text[i:j + 1]))
            i = j + 1
            continue
        if c == "'":
            # a char literal ('x', '\n', '\u{..}'), not a lifetime
            lit = re.match(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'", text[i:i + 12])
            if lit:
                out.append("' '")
                i += lit.end()
                continue
        out.append(c)
        i += 1
    return "".join(out).split("\n")


def test_only_items(lines):
    """Yields the indices of the lines that belong to `#[cfg(test)]` items,
    and the names of the modules such items declare without a body."""
    skip = set()
    declared = []
    i = 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        start = i
        i += 1
        while i < len(lines) and (not lines[i].strip() or lines[i].strip().startswith("#[")):
            i += 1
        decl = re.match(r"\s*(pub(\([^)]*\))?\s+)?mod\s+(\w+)\s*;", lines[i]) if i < len(lines) else None
        if decl:
            declared.append(decl.group(3))
        # The item ends on the first line that closes its brackets and ends
        # in `;`, `,` or `}` (an item, a field, a statement), or just before
        # a line that closes the block around it.
        depth = 0
        while i < len(lines):
            for ch in lines[i]:
                depth += (ch in "([{") - (ch in ")]}")
                if depth < 0:
                    break
            if depth < 0:
                i -= 1
                break
            if depth == 0 and lines[i].rstrip()[-1:] in (";", ",", "}"):
                break
            i += 1
        skip.update(range(start, i + 1))
        i += 1
    return skip, declared


def module_files(path, name):
    """The files a `mod name;` in `path` may refer to."""
    here = os.path.dirname(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    base = here if stem in ("lib", "main", "mod") else os.path.join(here, stem)
    return [os.path.join(base, name + ".rs"), os.path.join(base, name, "mod.rs")]


def count(root):
    groups = []
    crates = os.path.join(root, "crates")
    for name in sorted(os.listdir(crates)):
        src = os.path.join(crates, name, "src")
        if os.path.isdir(src):
            groups.append(("crates/" + name, src))
    groups += [("src", os.path.join(root, "src")), ("examples", os.path.join(root, "examples"))]

    files = []
    for label, top in groups:
        for dirpath, _, names in os.walk(top):
            files += [(label, os.path.join(dirpath, f)) for f in sorted(names) if f.endswith(".rs")]

    code = {}
    test_files = set()
    for _, path in files:
        with open(path, encoding="utf-8") as f:
            code[path] = strip_code(f.read())
        skip, declared = test_only_items(code[path])
        code[path] = [line for ix, line in enumerate(code[path]) if ix not in skip]
        for name in declared:
            test_files.update(os.path.normpath(p) for p in module_files(path, name))

    totals = {}
    for label, path in files:
        if os.path.normpath(path) in test_files:
            continue
        totals[label] = totals.get(label, 0) + sum(1 for line in code[path] if line.strip())
    return totals


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..", "..")
    totals = count(root)
    for label in sorted(totals):
        print(f"{label:24} {totals[label]:6}")
    print(f"{'total':24} {sum(totals.values()):6}")


if __name__ == "__main__":
    main()
