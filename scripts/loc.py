"""Line counts of the package: code, docstring, comment and blank lines per
module under src/kdeval.

    python3 scripts/loc.py [--root <checkout>] [--root <checkout>]

Without --root the checkout that holds this script is counted.  With two
roots the output also holds the second root's counts minus the first's.

A line is blank when it holds nothing but whitespace (inside a docstring
too), a docstring line when it lies within a module, class or function
docstring (found with `ast`), a comment line when it holds only a comment,
and a code line otherwise.  Standard output is one JSON object.
"""

import argparse
import ast
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count_module(path):
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            kind = "blank"
        elif number in docs:
            kind = "docstring"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def count_root(root):
    """{"modules": {name: counts}, "total": counts} for root/src/kdeval."""
    modules = {path.name: count_module(path)
               for path in sorted((Path(root) / "src" / "kdeval").glob("*.py"))}
    if not modules:
        raise SystemExit(f"loc.py: no src/kdeval/*.py under {root}")
    total = {kind: sum(c[kind] for c in modules.values()) for kind in KINDS}
    return {"root": str(root), "modules": modules, "total": total}


def difference(first, second):
    """Per-module and total counts of second minus first (0 for a missing module)."""
    zero = dict.fromkeys(KINDS, 0)
    names = sorted(set(first["modules"]) | set(second["modules"]))
    modules = {}
    for name in names:
        a, b = first["modules"].get(name, zero), second["modules"].get(name, zero)
        modules[name] = {kind: b[kind] - a[kind] for kind in KINDS}
    total = {kind: second["total"][kind] - first["total"][kind] for kind in KINDS}
    return {"modules": modules, "total": total}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", default=None,
                        help="checkout to count (at most two; default: this one)")
    args = parser.parse_args(argv)
    roots = args.root or [HERE.parent]
    if len(roots) > 2:
        parser.error("at most two --root")
    counted = [count_root(root) for root in roots]
    out = {"roots": counted}
    if len(counted) == 2:
        out["delta"] = difference(*counted)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
