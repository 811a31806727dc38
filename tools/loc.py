"""Code size of the package, and the names nothing outside the tests uses.

    python3 tools/loc.py [--src SRC]
    python3 tools/loc.py --unused [--src SRC]
    python3 tools/loc.py --knobs [--src SRC]

With no flag it prints, per module of SRC/intertwine (default: this
checkout's `src`) and in total, the code lines (lines that hold a token
other than a comment, and are not part of a docstring) and the `wc -l`
lines.

--unused lists the package's top-level names that no module in src, demos,
tools or perfbench references by AST name, attribute or import, and the
methods of its top-level classes that none references as an attribute
(`obj.method`): a local variable of the same name is not a use.  The
package's `__init__.py` re-exports names and does not count as a use, and
dunder methods are run by the language, so they are never listed.  A name
that only tests reach shows up here; a name used through a string (getattr,
a tracer that wraps by name) shows up too, so each listed name needs a
reason to stay.

--knobs lists, per package function or method (nested functions included,
as `module.func`, `module.Class.method` or `module.func.inner`), the
parameters that have a default and that no call in the same user modules
passes, by keyword, by position or through a `*` or `**` splat.  Calls are
matched by the callee's name alone, and a class name calls its `__init__`,
so a call to a same-named function elsewhere counts too; a listed parameter
is a value only the tests set, and needs a reason to stay.
"""

from __future__ import annotations

import argparse
import ast
import io
import math
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "intertwine"
# the trees whose references count as uses, beside the package itself
USERS = ("demos", "tools", "perfbench")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(code lines, wc -l lines) of the Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(text))), text.count("\n")


def _modules(src: str) -> list:
    pkg = os.path.join(src, PACKAGE)
    return sorted(os.path.join(pkg, f) for f in os.listdir(pkg) if f.endswith(".py"))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def sizes(src: str) -> str:
    rows, total = [], [0, 0]
    for path in _modules(src):
        code, wc = count(_read(path))
        rows.append(f"{os.path.basename(path):<20}{code:>8}{wc:>8}")
        total[0] += code
        total[1] += wc
    head = f"{'module':<20}{'code':>8}{'wc -l':>8}"
    return "\n".join([head, *rows, f"{'total':<20}{total[0]:>8}{total[1]:>8}"]) + "\n"


def definitions(tree: ast.Module) -> list:
    """The top-level names and the methods of the top-level classes of a
    module, as (qualified name, name)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item.name) for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((t.id, t.id) for t in targets if isinstance(t, ast.Name))
    return [(qual, name) for qual, name in out if not (name.startswith("__") and name.endswith("__"))]


def references(tree: ast.AST) -> tuple:
    """(every name tree reads, takes as an attribute or imports, every
    attribute it takes)."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names | attributes, attributes


def _python_files(top: str) -> list:
    found = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        found.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py"))
    return found


def unused(src: str, root: str = ROOT) -> list:
    """The package's definitions that no user module references, as
    "module.qualified name"."""
    trees = {path: ast.parse(_read(path)) for path in _modules(src)}
    users = [path for path in trees if os.path.basename(path) != "__init__.py"]
    for top in USERS:
        users.extend(_python_files(os.path.join(root, top)))
    names, attributes = set(), set()
    for path in users:
        found_names, found_attributes = references(trees[path] if path in trees else ast.parse(_read(path)))
        names |= found_names
        attributes |= found_attributes
    listed = []
    for path, tree in trees.items():
        module = os.path.basename(path)[:-3]
        listed.extend(f"{module}.{qual}" for qual, name in definitions(tree)
                      if name not in (attributes if "." in qual else names))
    return listed


def _defs(nodes):
    """The defs and classes among nodes and inside their other statements,
    not looking inside a def or a class."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        else:
            yield from _defs(ast.iter_child_nodes(node))


def _functions(body, prefix: str = "", in_class: bool = False):
    """(qualified name, callee names, node, positional offset) of every def
    in body, in order: nested defs and the methods of classes included.  The
    offset counts the self or cls that a call does not pass."""
    for node in _defs(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            offset = int(in_class and not static)
            names = {node.name}
            if in_class and node.name == "__init__":
                names.add(prefix.rstrip(".").rsplit(".", 1)[-1])
            yield f"{prefix}{node.name}", names, node, offset
            yield from _functions(node.body, f"{prefix}{node.name}.")
        else:
            yield from _functions(node.body, f"{prefix}{node.name}.", in_class=True)


def _defaulted(node) -> list:
    """(name, position or None) of each parameter of node with a default;
    the position counts from the first positional parameter, None marks a
    keyword-only one."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None]
    return out


def _calls(tree: ast.AST) -> dict:
    """callee name -> [(positional count, keyword names)] of each call in
    tree; a * argument counts as any number of positional ones, and a **
    argument as the keyword None, which passes every keyword."""
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        count = math.inf if any(isinstance(arg, ast.Starred) for arg in node.args) else len(node.args)
        calls.setdefault(name, []).append((count, {kw.arg for kw in node.keywords}))
    return calls


def knobs(src: str, root: str = ROOT) -> list:
    """One line "module.qualified name: parameters" per package function
    with defaulted parameters that no call in src, demos, tools or perfbench
    passes."""
    trees = {path: ast.parse(_read(path)) for path in _modules(src)}
    users = list(trees)
    for top in USERS:
        users.extend(_python_files(os.path.join(root, top)))
    calls = {}
    for path in users:
        for name, found in _calls(trees[path] if path in trees else ast.parse(_read(path))).items():
            calls.setdefault(name, []).extend(found)
    listed = []
    for path, tree in trees.items():
        module = os.path.basename(path)[:-3]
        for qual, names, node, offset in _functions(tree.body):
            made = [call for name in names for call in calls.get(name, ())]
            unset = [
                param for param, position in _defaulted(node)
                if not any(param in keywords or None in keywords or (position is not None and position < offset + count)
                           for count, keywords in made)
            ]
            if unset:
                listed.append(f"{module}.{qual}: {', '.join(unset)}")
    return listed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the directory that holds the package")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--unused", action="store_true", help="list the definitions no module references")
    mode.add_argument("--knobs", action="store_true", help="list the defaulted parameters no call passes")
    args = parser.parse_args(argv)
    if args.unused:
        sys.stdout.write("".join(f"{name}\n" for name in unused(args.src)))
    elif args.knobs:
        sys.stdout.write("".join(f"{line}\n" for line in knobs(args.src)))
    else:
        sys.stdout.write(sizes(args.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
