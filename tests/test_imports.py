"""Module boundaries: no module of the package uses a sibling's private names,
and only `tree` names `Word` (fields on a ball are breadth-first arrays)."""

import ast
from pathlib import Path

import pytest

import sostree

PACKAGE = Path(sostree.__file__).parent


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def sibling_private_names(source, module):
    """`module.name` of every underscore name that `source`, the text of
    sostree.<module>, imports from another sostree module or reads on one
    bound by `from . import <sibling>`."""
    bound = {}          # local name -> the sibling module it stands for
    found = []
    nodes = list(ast.walk(ast.parse(source)))
    for node in nodes:
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = node.module or ""
        elif (node.module or "").split(".")[0] == "sostree":
            base = node.module.removeprefix("sostree").lstrip(".")
        else:
            continue
        for alias in node.names:
            if _private(alias.name) and base != module:
                found.append(f"{base}.{alias.name}")
            if not base:
                bound[alias.asname or alias.name] = alias.name
    for node in nodes:
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in bound
                and bound[node.value.id] != module):
            found.append(f"{bound[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_uses_a_sibling_private_name(path):
    assert sibling_private_names(path.read_text(), path.stem) == []


def test_the_check_sees_imports_and_attribute_reads():
    source = "\n".join([
        "from . import __version__, measure",
        "from . import roots as r",
        "from .boundary import _sorted_lse, law_map",
        "from sostree.tree import _private_helper",
        "from .cli import _own_name",
        "table = measure._tables(fld, params)",
        "r._grid",
        "self._cache, measure.tables, _local",
    ])
    assert sorted(sibling_private_names(source, "cli")) == [
        "boundary._sorted_lse", "measure._tables", "roots._grid", "tree._private_helper"]


def identifiers(source):
    """Every name that `source` imports, defines, reads or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "tree"],
                         ids=lambda p: p.stem)
def test_only_tree_names_word(path):
    assert "Word" not in identifiers(path.read_text())


def test_the_word_check_sees_imports_and_reads_but_not_text():
    assert "Word" in identifiers("from .tree import Word")
    assert "Word" in identifiers("from . import tree\nv = tree.Word()")
    assert "Word" in identifiers("def f(w: Word) -> None: pass")
    assert "Word" not in identifiers('"""Words are not Word objects."""\nwords = ()')
