"""Guards: every function, method and class under ``src/`` has a
caller, and every keyword-only option under ``src/`` is set by a call.

A definition counts as used when its name appears anywhere else in
``src/``, ``tests/``, ``benchmarks/`` or ``examples/``: as a name, an
attribute, an imported name, or a string that is an identifier (the
``getattr(obj, "name")`` shape).  The definition itself does not count,
and neither do the imports and ``__all__`` strings of ``__init__.py``
files: a re-export is not a caller.

The check is by name, so it cannot catch code whose only callers are
its own unit tests; deleting that stays a judgement call.
"""

import ast
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _exempt(path: pathlib.Path, node: ast.AST) -> bool:
    name = node.name
    # The interpreter calls dunder methods (``__init__``, ``__enter__``,
    # ``__repr__`` ...) by protocol, never by name.
    if name.startswith("__") and name.endswith("__"):
        return True
    # ``@register``/``@register_backend`` store the definition in a
    # registry; callers reach it by its registered key, not its name.
    if any(_decorator_name(d).startswith("register")
           for d in node.decorator_list):
        return True
    # The farm and serve servers dispatch ``_op_<op>`` handlers through
    # ``getattr(self, "_op_" + op)`` on the wire op name.
    if name.startswith("_op_"):
        return True
    # ``http.server.BaseHTTPRequestHandler`` calls these two hooks of the
    # metrics endpoint's handler.
    if path.name == "runtime.py" and name in ("do_GET", "log_message"):
        return True
    return False


def _used_names(path: pathlib.Path, tree: ast.AST) -> set:
    reexports = path.name == "__init__.py"
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not reexports:
                for alias in node.names:
                    names.update(alias.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and not reexports):
            names.add(node.value)
    return names


def test_every_src_definition_has_a_caller():
    this_file = pathlib.Path(__file__).resolve()
    used = set()
    sources = []
    for directory in SCANNED_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            if path.resolve() == this_file:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            used |= _used_names(path, tree)
            if directory == "src":
                sources.append((path, tree))
    idle = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {node.name}"
        for path, tree in sources
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and node.name not in used and not _exempt(path, node)
    ]
    assert not idle, (
        "definitions nothing calls (delete them, or exempt them here "
        "with a reason):\n" + "\n".join(idle)
    )


def _passed_keywords(tree: ast.AST) -> set:
    return {
        keyword.arg
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        for keyword in node.keywords if keyword.arg is not None
    }


def test_every_keyword_only_option_is_passed_somewhere():
    """Every keyword-only parameter with a default under ``src/`` is
    passed by keyword at some call in ``src/``, ``tests/``,
    ``benchmarks/`` or ``examples/``.

    An option that no call sets always takes its default: delete it and
    keep the default's behaviour.  The check is by name, like the one
    above: a keyword counts for every parameter of that name, and an
    option reached only through ``**kwargs`` or only by its own unit
    tests passes.
    """
    this_file = pathlib.Path(__file__).resolve()
    passed = set()
    sources = []
    for directory in SCANNED_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            if path.resolve() == this_file:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            passed |= _passed_keywords(tree)
            if directory == "src":
                sources.append((path, tree))
    unset = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: "
        f"{node.name}({arg.arg}=)"
        for path, tree in sources
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if default is not None and arg.arg not in passed
    ]
    assert not unset, (
        "keyword-only options no call passes (delete them, keeping the "
        "default's behaviour):\n" + "\n".join(unset)
    )
