"""Static checks of the package source: no unused import, no private
top-level function that nothing in the package references, no private
top-level name that nothing in the package reads, no private name imported
from another module unless it is listed here, no rounding in the jets
(``jets.py`` imports nothing from mpmath or ``numeric``), no public
top-level function whose parameter or result is annotated as a union, and
no word of mpmath's process-global precision (``workprec``, ``mp.prec``,
``mp.dps``) nor any name that the exact balls replaced.

``__init__.py`` is skipped for imports, since its imports are the public
API.  An import marked ``# noqa: F401`` is kept on purpose; the only one is
named here, so that another shows up as a change to this file.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tsum"
# the benchmark's tracer wraps series.hurwitz_zeta to count the calls made there
KEPT_IMPORTS = {("series.py", "hurwitz_zeta")}
# private names that cross modules on purpose: the hypotheses and report
# that the suite builds cases from
PRIVATE_IMPORTS = {("suite.py", "_check_ab"), ("suite.py", "_check_single_a"),
                   ("suite.py", "_report")}
# the mpf helpers and the tolerance cache that the exact balls replaced
REPLACED = ("to_mpf", "round_to", "tolerance_mpf", "_tolerance_cache", "RealLike")


def _modules() -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def _names(tree: ast.AST) -> set:
    """Every name read or bound in ``tree``, and every attribute taken."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_no_unused_imports():
    unused, kept = [], set()
    for name, text in _modules().items():
        if name == "__init__.py":
            continue
        tree, lines = ast.parse(text), text.splitlines()
        used = _names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if "# noqa: F401" in lines[node.lineno - 1]:
                    kept.add((name, bound))
                elif bound not in used:
                    unused.append(f"{name}: {bound}")
    assert unused == []
    assert kept == KEPT_IMPORTS


def test_every_private_function_is_referenced():
    trees = {name: ast.parse(text) for name, text in _modules().items()}
    used = set().union(*map(_names, trees.values()))
    dead = [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__") and node.name not in used]
    assert dead == []


def test_private_imports_are_listed():
    found = {(name, alias.name) for name, text in _modules().items() if name != "__init__.py"
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names
             if alias.name.startswith("_") and not alias.name.startswith("__")}
    assert found == PRIVATE_IMPORTS


def _bound_names(node: ast.stmt) -> list:
    """The names a top-level assignment or class binds."""
    if isinstance(node, ast.ClassDef):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_private_name_is_read():
    trees = {name: ast.parse(text) for name, text in _modules().items()}
    read = {n.id for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    dead = [f"{name}: {bound}" for name, tree in trees.items() for node in tree.body
            for bound in _bound_names(node)
            if bound.startswith("_") and not bound.startswith("__") and bound not in read]
    assert dead == []


def test_jets_are_exact_only():
    # jets hold rationals or unrounded kernel terms; nothing there rounds
    tree = ast.parse((SRC / "jets.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names} | {
        "." * node.level + (node.module or "") for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)}
    assert not {m for m in modules if m.split(".")[0] == "mpmath" or m.endswith("numeric")}


def _is_union(node: ast.expr) -> bool:
    """An annotation that admits more than one type: Optional[...],
    Union[...] or X | Y, also when written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.BitOr)
    if isinstance(node, ast.Subscript):
        base = node.value
        return (base.attr if isinstance(base, ast.Attribute)
                else getattr(base, "id", None)) in ("Optional", "Union")
    return False


def test_no_public_function_takes_or_returns_a_union():
    # one meaning per name: no argument switches the path or the type of
    # the result, as prec=None once turned a constant into its exact terms
    found = []
    for name, text in _modules().items():
        for node in ast.parse(text).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a)]
            annotations = [a.annotation for a in params] + [node.returns]
            if any(ann is not None and _is_union(ann) for ann in annotations):
                found.append(f"{name}: {node.name}")
    assert found == []


def test_no_global_precision_and_no_replaced_name():
    # every mpmath call names its precision, so no path reads or sets the
    # process-global context
    pattern = re.compile(r"workprec|\bmp\.(?:prec|dps)\b|\b(?:" + "|".join(REPLACED) + r")\b")
    found = [f"{name}:{text.count(chr(10), 0, m.start()) + 1}: {m[0]}"
             for name, text in _modules().items() for m in pattern.finditer(text)]
    assert found == []
