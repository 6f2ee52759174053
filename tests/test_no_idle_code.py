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


#: AST nodes a function body needs before two copies of it count
MIN_BODY_NODES = 30

#: bodies that stay written twice on purpose, each with its reason
ALLOWED_TWINS = {
    frozenset({
        "src/repro/collectives/allreduce/tree_allreduce.py:setup",
        "src/repro/collectives/bcast/tree_dma.py:setup",
    }): "the allreduce and bcast families share no base below "
        "InvocationBase, and the tree operation is four lines",
    frozenset({
        "src/repro/collectives/allgather/base.py:node_block_range",
        "src/repro/collectives/gather/base.py:node_block_range",
    }): "allgather and gather share no base below InvocationBase, and "
        "the block layout is one line",
}


def _body_dump(node: ast.AST):
    """The AST dump and node count of a function body, docstring left out;
    None for a bare ``raise NotImplementedError`` stub."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        exc = body[0].exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
            return None
    module = ast.Module(body=body, type_ignores=[])
    return ast.dump(module), sum(1 for _ in ast.walk(module))


def test_no_function_body_is_defined_twice():
    """No two functions or methods under ``src/`` have AST-identical
    bodies of :data:`MIN_BODY_NODES` or more nodes: keep one and call
    it, or list the pair in :data:`ALLOWED_TWINS` with a reason.

    Names, arguments and docstrings do not count; line numbers and
    comments are not in the AST.  The check sees exact copies only: a
    near-copy that differs in one flow name or one literal passes.
    """
    by_body = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            dumped = _body_dump(node)
            if dumped is None or dumped[1] < MIN_BODY_NODES:
                continue
            site = f"{path.relative_to(REPO_ROOT).as_posix()}:{node.name}"
            by_body.setdefault(dumped[0], []).append((site, node.lineno))
    twins = [
        sorted(sites) for sites in by_body.values()
        if len(sites) > 1
        and frozenset(site for site, _line in sites) not in ALLOWED_TWINS
    ]
    assert not twins, (
        "function bodies written more than once (keep one, or list the "
        "set in ALLOWED_TWINS with a reason):\n" + "\n".join(
            ", ".join(f"{site} (line {line})" for site, line in group)
            for group in twins
        )
    )
