"""No unused API: every function, method and class defined in src/sclab (a
dunder aside) is named somewhere in src/ or bench/ beyond its own
definition, and every __all__ entry is defined or imported in its module.
A name counts as code: a NAME token of src/ or bench/, or a word in a
string literal of bench/, whose tracer reaches functions by name; words in
comments, docstrings and src/ strings (__all__ entries among them) do not.
The files are read with tokenize and ast; nothing is imported."""

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(name, line) of every non-dunder def and class in a module, nested
    ones included, in line order."""
    defs = [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    return sorted(defs, key=lambda d: d[1])


def _exports(tree):
    """The names listed in a module's __all__."""
    return [
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]


def _code_words(path: Path, strings: bool) -> Counter:
    """The NAME tokens of a Python file, less the name each def and class
    statement defines, and with strings the words of its string literals."""
    words: Counter = Counter()
    previous = ""
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                words[tok.string] += 1
            elif tok.type == tokenize.STRING and strings:
                words.update(re.findall(r"\w+", tok.string))
            previous = tok.string
    return words


def unreferenced(root: Path):
    """'module.py:line name' for every definition under root/src/sclab that
    no code in root/src or root/bench names beyond its definition."""
    sources = sorted((root / "src" / "sclab").glob("*.py"))
    words: Counter = Counter()
    for path in sources:
        words += _code_words(path, strings=False)
    for path in sorted((root / "bench").glob("*.py")):
        words += _code_words(path, strings=True)
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text())
        unused += [(path.name, line, name) for name, line in _definitions(tree)]
    return [f"{module}:{line} {name}" for module, line, name in unused if words[name] <= 0]


def test_every_definition_has_a_caller():
    assert unreferenced(ROOT) == []


def test_a_definition_named_only_by_its_export_is_flagged(tmp_path):
    (tmp_path / "src" / "sclab").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "src" / "sclab" / "mod.py").write_text(
        '__all__ = ["used", "unused"]\n\n\n'
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n\n"
        "    def size(self):\n"
        "        return 0\n\n\n"
        "def used():\n"
        "    return Box()\n\n\n"
        "def unused():\n"
        "    return 1\n"
    )
    (tmp_path / "bench" / "run.py").write_text("from sclab.mod import used\nused()\n")
    assert unreferenced(tmp_path) == ["mod.py:8 size", "mod.py:16 unused"]


def test_a_definition_named_only_in_a_string_or_comment_is_flagged(tmp_path):
    (tmp_path / "src" / "sclab").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "src" / "sclab" / "mod.py").write_text(
        "def in_docstring():\n"
        '    """Not in_comment, nor in_string, nor by_bench_string."""\n'
        "    return 'in_string'  # in_docstring and in_comment\n\n\n"
        "def in_comment():\n"
        "    return 1\n\n\n"
        "def in_string():\n"
        "    return 2\n\n\n"
        "def by_bench_string():\n"
        "    return 3\n"
    )
    # bench reaches functions by name: a word in its strings counts, one in
    # its comments does not
    (tmp_path / "bench" / "run.py").write_text(
        'TRACED = ("by_bench_string",)  # in_comment\n'
    )
    assert unreferenced(tmp_path) == [
        "mod.py:1 in_docstring",
        "mod.py:6 in_comment",
        "mod.py:10 in_string",
    ]


def _bound_names(tree):
    """The names a module binds at its top level: defs, classes, assignment
    targets and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def stale_exports(root: Path):
    """'module.py name' for every __all__ entry under root/src/sclab that its
    module neither defines nor imports."""
    stale = []
    for path in sorted((root / "src" / "sclab").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _bound_names(tree)
        stale += [f"{path.name} {name}" for name in _exports(tree) if name not in bound]
    return stale


def test_every_export_is_defined_or_imported():
    assert stale_exports(ROOT) == []


def test_an_export_with_no_definition_is_flagged(tmp_path):
    (tmp_path / "src" / "sclab").mkdir(parents=True)
    (tmp_path / "src" / "sclab" / "mod.py").write_text(
        '__all__ = ["defined", "imported", "assigned", "gone"]\n\n'
        "from math import pi as imported\n\n"
        "assigned: int = 1\n\n\n"
        "def defined():\n"
        "    gone = 2\n"
        "    return gone\n"
    )
    assert stale_exports(tmp_path) == ["mod.py gone"]


def _sclab_imports(module: str):
    """The sclab modules that src/sclab/<module>.py imports."""
    tree = ast.parse((ROOT / "src" / "sclab" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_operator_probe_depends_only_on_the_lower_layers():
    assert _sclab_imports("operator_probe") == {"scale_core", "bump_profiles"}


def _np_call(node, name: str) -> bool:
    """Whether node is a call of np.<name>."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    )


def _quadrature_sites(root: Path):
    """'module.py function' for every innermost src/sclab function that calls
    np.gradient or builds a weight np.exp(... np.abs(...) ...)."""
    sites = set()

    def visit(node, module: str, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _np_call(node, "gradient") or (
            _np_call(node, "exp") and any(_np_call(n, "abs") for n in ast.walk(node))
        ):
            sites.add(f"{module} {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted((root / "src" / "sclab").glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "<module>")
    return sites


def test_one_function_holds_the_sobolev_quadrature():
    # the derivative loop and the weight exp(delta |x|) live in one kernel,
    # so that no second copy of the weighted-Sobolev rule grows back
    assert _quadrature_sites(ROOT) == {"scale_core.py grid_sobolev_pairings"}


def test_a_second_quadrature_is_flagged(tmp_path):
    (tmp_path / "src" / "sclab").mkdir(parents=True)
    (tmp_path / "src" / "sclab" / "mod.py").write_text(
        "import numpy as np\n\n\n"
        "def kernel(v, d, x):\n"
        "    return np.gradient(v) * np.exp(d * np.abs(x))\n\n\n"
        "def copy(v, d, x):\n"
        "    def inner():\n"
        "        return np.exp(2.0 * d * np.abs(x))\n"
        "    return np.exp(v), inner\n"
    )
    assert _quadrature_sites(tmp_path) == {"mod.py kernel", "mod.py inner"}
