"""Every public name has a user outside the tests."""

import ast
import re
from collections import Counter
from functools import cached_property
from pathlib import Path
from types import FunctionType

import selfsim

ROOT = Path(__file__).resolve().parents[1]


def _references(path: Path) -> tuple[set[str], set[str]]:
    """What a Python file reads, bindings aside: names read, attributes, imported
    names and strings; and apart, its attributes and strings, the ways a class
    member is read."""
    found, members = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)
    return found | members, members


def _readme_code() -> set[str]:
    """Identifiers inside the README's code blocks and inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def _user_path_references() -> tuple[set[str], set[str]]:
    """Both sets of _references over the user paths: a library module other
    than the package's __init__ (a definition is not a reference), a demo and
    perfbench/tracer.py; the identifiers of the README's code join both."""
    files = [p for p in sorted((ROOT / "src" / "selfsim").glob("*.py")) if p.name != "__init__.py"]
    files += [*sorted((ROOT / "demos").glob("*.py")), ROOT / "perfbench" / "tracer.py"]
    names, members = zip(*map(_references, files))
    readme = _readme_code()
    return readme.union(*names), readme.union(*members)


def test_every_public_name_has_a_user_path():
    """A use is any reference on a user path, as _user_path_references reads them."""
    used = _user_path_references()[0]
    assert [name for name in selfsim.__all__ if name not in used] == []


def test_every_public_member_has_a_user_path():
    """Each public method or property that a class in selfsim.__all__ defines is read on a user path.

    A read is an attribute or a string (getattr, the tracer's targets) on a
    path that _user_path_references reads, or an identifier in the README's
    code. The check goes by name, so it cannot tell two classes' members of
    one name apart: a member whose name another class's member shares, and
    which is read there, passes though nothing reads it (as
    Permutation.inverse and MealyAutomaton.size did beside
    CanonicalElement's).
    """
    used = _user_path_references()[1]
    kinds = (FunctionType, property, cached_property, classmethod, staticmethod)
    classes = [(name, getattr(selfsim, name)) for name in selfsim.__all__]
    unused = [
        f"{name}.{attr}"
        for name, cls in classes
        if isinstance(cls, type)
        for attr, member in vars(cls).items()
        if not attr.startswith("_") and isinstance(member, kinds) and attr not in used
    ]
    assert unused == []


def test_every_module_import_is_used():
    """A module-level import in src/selfsim is read in its module, so a deletion leaves no stale import.

    A read is a loaded name, or a string that is one identifier: an __all__ entry or a quoted annotation.
    """
    unused = []
    for path in sorted((ROOT / "src" / "selfsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                read.add(node.value)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_every_private_function_is_referenced():
    """A private module-level function or method in src/selfsim is read somewhere in src/selfsim outside its own body.

    A read is a loaded name or an attribute; dunder methods are called by the language and are left out.
    """
    def reads(tree) -> Counter:
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
        )

    used, defined = Counter(), []
    for path in sorted((ROOT / "src" / "selfsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += reads(tree)
        scopes = [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]
        for node in (node for scope in scopes for node in scope.body):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__"):
                defined.append((path.name, node))
    unread = [f"{name}: {node.name}" for name, node in defined if used[node.name] == reads(node)[node.name]]
    assert unread == []


def test_readme_library_tour_runs_and_holds_its_stated_results():
    """The README's library tour runs as printed, and each line whose comment ends
    in a literal, as "# word problem: True" does, evaluates to that literal."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)[1]
    lines, namespace, stated = tour.splitlines(), {}, []
    for node in ast.parse(tour).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.lineno - 1].partition("#")[2]
        try:
            claim = ast.literal_eval(comment.rsplit(": ", 1)[-1].strip())
        except (ValueError, SyntaxError):
            continue
        stated.append((value, claim))
    assert [claim for _, claim in stated] == [True, (7, 2), 1, (0, 0, 0, 0, 0, 1, 0, 1)]
    assert all(value == claim for value, claim in stated)
