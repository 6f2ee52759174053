"""Guards: every function, method and class under ``src/`` has a caller
outside its own unit tests, every keyword-only option under ``src/`` is
set by a call, no module under ``src/`` imports a name it never uses, and
no function body under ``src/`` is written twice.

A definition counts as used when its name appears anywhere else in
``src/``, ``tests/``, ``benchmarks/`` or ``examples/``: as a name, an
attribute, an imported name, or a string that is an identifier (the
``getattr(obj, "name")`` shape).  The definition itself does not count,
and neither do the imports and ``__all__`` strings of ``__init__.py``
files: a re-export is not a caller.  A use under ``tests/`` alone does
not keep a definition: code that only its own unit tests reach is either
deleted or named, with its reason, in :data:`TEST_ONLY_ALLOWED`.
"""

import ast
import functools
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``src/`` definitions that only tests call, kept on purpose, each with
#: its reason; keyed ``path:Qualified.name``
TEST_ONLY_ALLOWED = {
    "src/repro/structures/ptp_fifo.py:PtPFifo":
        "section IV-A's point-to-point FIFO as real threads, exported "
        "from repro; the simulated torus-fifo models the Bcast FIFO only",
    "src/repro/structures/ptp_fifo.py:PtPFifo.dequeue":
        "the consumer half of section IV-A's FIFO",
    "src/repro/structures/msg_counter.py:MessageCounter":
        "section IV-C's software message counter as real threads, "
        "exported from repro; the simulated protocols use SimCounter",
    "src/repro/structures/msg_counter.py:MessageCounter.reset":
        "buffer reuse of section IV-C's counter",
    "src/repro/analysis/model.py:predict_tree_latency":
        "the closed form test_latency_model_matches_simulation holds the "
        "simulated Fig 6 latency to",
    "src/repro/bench/farm.py:register_task":
        "the seam through which tests install fake farm tasks",
    "src/repro/sim/flownet.py:FlowNetwork.full_fills":
        "a solver work counter the solver tests and docs read",
}


@functools.lru_cache(maxsize=None)
def _parsed() -> tuple:
    """``(directory, path, tree)`` for every scanned file but this one."""
    this_file = pathlib.Path(__file__).resolve()
    parsed = []
    for directory in SCANNED_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            if path.resolve() == this_file:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            parsed.append((directory, path, tree))
    return tuple(parsed)


def _site(path: pathlib.Path) -> str:
    return path.relative_to(REPO_ROOT).as_posix()


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


def _definitions(tree: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` for every definition in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            qualname = prefix + node.name
            yield qualname, node
            yield from _definitions(node, qualname + ".")
        else:
            yield from _definitions(node, prefix)


def _scan():
    """The names each scanned directory uses, and every ``src/``
    definition the name rules do not exempt, as ``(key, line, node)``."""
    used = {directory: set() for directory in SCANNED_DIRS}
    definitions = []
    for directory, path, tree in _parsed():
        used[directory] |= _used_names(path, tree)
        if directory == "src":
            definitions.extend(
                (f"{_site(path)}:{qualname}", node.lineno, node)
                for qualname, node in _definitions(tree)
                if not _exempt(path, node)
            )
    return used, definitions


def test_every_src_definition_has_a_caller():
    used, definitions = _scan()
    everywhere = set().union(*used.values())
    idle = [
        f"{key.split(':')[0]}:{line}: {node.name}"
        for key, line, node in definitions
        if node.name not in everywhere
    ]
    assert not idle, (
        "definitions nothing calls (delete them, or exempt them here "
        "with a reason):\n" + "\n".join(idle)
    )


def _test_only_findings(used, definitions, allowed) -> list:
    """What the test-only-callers guard reports: every definition used
    under ``tests/`` and nowhere else that ``allowed`` does not name, and
    every ``allowed`` key that names no definition or whose definition
    has gained a caller outside ``tests/``."""
    outside = set().union(
        *(names for directory, names in used.items() if directory != "tests")
    )
    found = []
    keys = set()
    for key, line, node in definitions:
        keys.add(key)
        if node.name in outside:
            if key in allowed:
                found.append(f"{key}: allowed as test-only, but called "
                             "outside tests/ (drop the entry)")
        elif node.name in used["tests"] and key not in allowed:
            found.append(f"{key.split(':')[0]}:{line}: {node.name} "
                         "(only tests/ calls it)")
    found.extend(
        f"{key}: allowed as test-only, but no such definition (drop the "
        "entry)"
        for key in sorted(set(allowed) - keys)
    )
    return found


def test_no_src_definition_only_its_tests_call():
    found = _test_only_findings(*_scan(), TEST_ONLY_ALLOWED)
    assert not found, (
        "definitions only tests/ calls (delete them with their tests, or "
        "name them in TEST_ONLY_ALLOWED with a reason), and stale "
        "entries:\n" + "\n".join(found)
    )


def test_test_only_guard_sees_gone_and_reused_entries():
    """The guard itself: an entry whose definition is gone, or that a
    caller outside ``tests/`` reached, is reported, and so is a
    definition only tests call that no entry names."""
    tree = ast.parse("class Kept:\n    def probe(self): pass\n"
                     "def helper(): pass\n")
    definitions = [
        (f"src/m.py:{qualname}", node.lineno, node)
        for qualname, node in _definitions(tree)
    ]
    used = {"src": set(), "tests": {"Kept", "probe", "helper"},
            "benchmarks": set(), "examples": set()}
    allowed = {"src/m.py:Kept": "", "src/m.py:Kept.probe": ""}
    assert _test_only_findings(used, definitions, allowed) == [
        "src/m.py:3: helper (only tests/ calls it)",
    ]
    used["benchmarks"].add("probe")
    allowed["src/m.py:Gone"] = ""
    assert _test_only_findings(used, definitions, allowed) == [
        "src/m.py:Kept.probe: allowed as test-only, but called outside "
        "tests/ (drop the entry)",
        "src/m.py:3: helper (only tests/ calls it)",
        "src/m.py:Gone: allowed as test-only, but no such definition "
        "(drop the entry)",
    ]


def _imported_names(node: ast.AST):
    """``(bound name, line)`` for each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.asname is not None:
            yield alias.asname, node.lineno
        else:
            yield alias.name.split(".")[0], node.lineno


def _names_read(tree: ast.AST) -> set:
    """Every name a module reads, including those in string annotations
    (``"Machine"`` under ``TYPE_CHECKING``) and in ``__all__``."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value, mode="eval"))
    return names


def test_no_src_module_imports_a_name_it_never_uses():
    """Every name a module under ``src/`` imports is read in it.

    ``__init__.py`` files re-export, so they are skipped; so are
    ``__future__`` imports and import lines marked ``noqa`` (an import
    made for its side effect).
    """
    unused = []
    for directory, path, tree in _parsed():
        if directory != "src" or path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        read = _names_read(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statement = lines[node.lineno - 1:node.end_lineno]
            if any("noqa" in line for line in statement):
                continue
            unused.extend(
                f"{_site(path)}:{line}: {name}"
                for name, line in _imported_names(node) if name not in read
            )
    assert not unused, (
        "imports nothing in the module reads (delete them):\n"
        + "\n".join(unused)
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
    passed = set()
    sources = []
    for directory, path, tree in _parsed():
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
    for directory, path, tree in _parsed():
        if directory != "src":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            dumped = _body_dump(node)
            if dumped is None or dumped[1] < MIN_BODY_NODES:
                continue
            site = f"{_site(path)}:{node.name}"
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
