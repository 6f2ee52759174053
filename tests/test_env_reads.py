"""Guard: only ``repro/util/config.py`` reads the environment.

Every ``REPRO_*`` variable is declared once in its table and read
through :func:`repro.util.config.setting`, so each has one parser, one
default and one rule for a stray value.  Any other ``src/`` module that
reads ``os.environ`` (``.get``, a subscript load, ``in``, a copy) or
calls ``os.getenv`` fails this test.  Writing a variable stays allowed:
``perfsuite --slow`` sets ``REPRO_SIM_SLOWPATH`` so that its worker
processes inherit it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
READER = SRC / "repro" / "util" / "config.py"


def _name(node: ast.AST):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _environment_reads(tree: ast.AST):
    """Line numbers of every environment read in ``tree``."""
    writes = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, (ast.Store, ast.Del))
    }
    for node in ast.walk(tree):
        name = _name(node)
        if name == "getenv" or (name == "environ" and id(node) not in writes):
            yield node.lineno


def test_only_the_config_table_reads_the_environment():
    reads = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py")) if path != READER
        for line in sorted(set(_environment_reads(
            ast.parse(path.read_text(encoding="utf-8"), str(path)))))
    ]
    assert not reads, (
        "environment reads outside repro/util/config.py (declare the "
        "variable in its table and read it with setting()):\n"
        + "\n".join(reads)
    )


def test_the_guard_sees_every_shape_of_read():
    code = (
        "import os\n"
        "from os import environ, getenv\n"
        "a = os.environ.get('X')\n"
        "b = os.environ['X']\n"
        "c = 'X' in os.environ\n"
        "d = os.getenv('X')\n"
        "e = dict(environ)\n"
        "f = getenv('X')\n"
        "os.environ['X'] = '1'\n"
    )
    assert sorted(set(_environment_reads(ast.parse(code)))) == [
        3, 4, 5, 6, 7, 8,
    ]
