"""Code size of the package, and the names nothing outside the tests uses.

    python3 tools/loc.py [--src SRC]
    python3 tools/loc.py --unused [--src SRC]
    python3 tools/loc.py --knobs [--src SRC]

With no flag it prints, per module of SRC/intertwine (default: this
checkout's `src`) and in total, the code lines (lines that hold a token
other than a comment, and are not part of a docstring) and the `wc -l`
lines.

--unused lists the package's top-level names and the methods of its
top-level classes that no module in demos, tools or perfbench reaches.  A
definition is reached when a user module references it, or when a reached
definition of the package does: a top-level name by AST name, attribute or
import, a method only as an attribute (`obj.method`), so a local variable of
the same name is not a use.  An import inside the package is not a use.
The package's own roots are its top-level statements that run on import
and define nothing (a `__main__` block) and its dunder names; dunder
methods are run by the language with their class, so they are never
listed.  A name that only tests reach shows up here, and so does a name
reached only through such a name; a name used through a string (getattr,
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
# the trees outside the package whose references count as uses
USERS = ("demos", "tools", "perfbench")
# the top-level statements that define or import names; the others run on import
_DEFINES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign, ast.Import, ast.ImportFrom)
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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list:
    """The top-level names and the methods of the top-level classes of a
    module, as (qualified name, name, nodes): the nodes are what the
    definition runs, so their references count once it is used.  A class
    runs its decorators, bases, class-level statements and dunder methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node.name, [node]))
        elif isinstance(node, ast.ClassDef):
            methods = [item for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            runs = [item for item in node.body if item not in methods or _dunder(item.name)]
            out.append((node.name, node.name, [*node.decorator_list, *node.bases, *node.keywords, *runs]))
            out.extend((f"{node.name}.{item.name}", item.name, [item]) for item in methods if not _dunder(item.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((t.id, t.id, [node]) for t in targets if isinstance(t, ast.Name))
    return out


def references(nodes) -> tuple:
    """(every name the nodes read, take as an attribute or import, every
    attribute they take)."""
    names, attributes = set(), set()
    for node in (n for top in nodes for n in ast.walk(top)):
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
    """The package's definitions that no user module reaches, as
    "module.qualified name".

    The user modules' references count, and so do those of the package's
    top-level statements that define and import nothing (a `__main__`
    block, say) and of its dunder definitions.  A definition they reach is
    used, and its own references count in turn, until nothing new is
    reached: a top-level name by any reference, a method by an attribute.
    """
    roots, listed = [], []
    for path in _modules(src):
        module = os.path.basename(path)[:-3]
        tree = ast.parse(_read(path))
        roots.extend(node for node in tree.body if not isinstance(node, _DEFINES))
        for qual, name, nodes in definitions(tree):
            if _dunder(name):
                roots.extend(nodes)
            else:
                listed.append((f"{module}.{qual}", "." in qual, name, nodes))
    for top in USERS:
        roots.extend(ast.parse(_read(path)) for path in _python_files(os.path.join(root, top)))
    names, attributes = references(roots)
    while True:
        reached = [entry for entry in listed if entry[2] in (attributes if entry[1] else names)]
        if not reached:
            return [entry[0] for entry in listed]
        for entry in reached:
            listed.remove(entry)
            found_names, found_attributes = references(entry[3])
            names |= found_names
            attributes |= found_attributes


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
