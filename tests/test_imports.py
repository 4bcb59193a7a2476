"""Module boundaries: no module of the package uses a sibling's private names,
only `tree` names `Word` (fields on a ball are breadth-first arrays), the
public functions take no optional parameter beyond a pinned set, every
public function and class has a caller outside the tests, every private one
a caller in the package, and every parameter is read."""

import ast
from pathlib import Path

import pytest

import sostree

PACKAGE = Path(sostree.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


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
    return node_identifiers(ast.parse(source))


def node_identifiers(tree):
    """identifiers() of a parsed tree or of one of its statements."""
    found = set()
    for node in ast.walk(tree):
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


# Each of these has a non-test caller that sets it, or is the documented
# choice of a caller (cli.main(argv) defaults to sys.argv).  A value that only
# tests vary is a module constant that they monkeypatch instead.
PUBLIC_DEFAULTS = [
    "cli.main(argv)",
    "measure.compatibility_oracle(table)",
    "measure.dlr_breakdown(table)",
    "measure.log_partition(method)",
    "measure.root_marginal(method)",
    "measure.symmetry_check(table)",
    "nonti.build_field(symmetric_roots)",
    "periodic.alternating_limits(n_starts)",
    "periodic.alternating_limits(seed)",
    "periodic.cycle_instability(roots)",
    "periodic.iterate_parity_system(n_starts)",
    "periodic.iterate_parity_system(seed)",
    "periodic.solve_two_cycle_full(n_starts)",
    "periodic.solve_two_cycle_full(seed)",
    "periodic.solve_two_cycle_symmetric(roots)",
    "roots.batched_newton(tol)",
    "roots.bisect(rel_tol)",
    "roots.find_roots(sign)",
]


def public_defaults(source, module):
    """`module.function(parameter)` of every parameter with a default on a
    public function, or a public method of a public class, of `source`."""
    found = []

    def scan(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                scan(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found.extend(f"{module}.{prefix}{node.name}({a.arg})" for a in with_default)

    scan(ast.parse(source).body, "")
    return found


def test_every_public_default_is_pinned():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in public_defaults(path.read_text(), path.stem)]
    assert sorted(found) == PUBLIC_DEFAULTS


def test_the_default_scan_sees_functions_methods_and_keywords():
    source = "\n".join([
        "def f(a, b=1, *, c, d=2): pass",
        "def _hidden(a=1): pass",
        "class C:",
        "    def m(self, x=0): pass",
        "    def _p(self, y=0): pass",
        "class _D:",
        "    def m(self, z=0): pass",
        "def g(a, /, b=0, *args, **kw):",
        "    def inner(q=1): pass",
    ])
    assert public_defaults(source, "mod") == ["mod.f(b)", "mod.f(d)", "mod.C.m(x)", "mod.g(b)"]


def uncalled_public_names(sources, bench_sources):
    """`module.name` of every public module-level function or class of the
    package (`sources` maps each module to its text) that nothing names outside
    its own definition: no other statement of a package module, and no
    identifier of a bench source or part of its dotted string constants (the
    bench looks layers up as "periodic.iterate_parity_system" or as
    ("tree", "cached_ball"))."""
    named = set()
    for text in bench_sources:
        tree = ast.parse(text)
        named |= node_identifiers(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    named.update(parts)
    return _unnamed(sources, named, lambda name: not name.startswith("_"))


def uncalled_private_names(sources):
    """`module.name` of every private module-level function or class of the
    package that no other statement of a package module names: a helper that
    only the tests call."""
    return _unnamed(sources, set(), _private)


def _unnamed(sources, named, wanted):
    """`module.name` of every module-level function or class of `sources`
    whose name passes `wanted` and is neither in `named` nor named by another
    statement of the package."""
    statements = [(module, stmt) for module, text in sources.items()
                  for stmt in ast.parse(text).body]
    named = set(named)
    for _, stmt in statements:
        named_here = node_identifiers(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            named_here.discard(stmt.name)
        named |= named_here
    return sorted(f"{module}.{stmt.name}" for module, stmt in statements
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and wanted(stmt.name) and stmt.name not in named)


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert uncalled_public_names(sources, bench) == []


def test_the_caller_scan_sees_other_statements_and_bench_strings():
    sources = {
        "a": "\n".join([
            "def imported(): pass",
            "def recursive(): return recursive()",
            "def spanned(): pass",
            "def dotted(): pass",
            "def in_a_sentence(): pass",
            "class Built: pass",
            "def _private(): pass",
            "x = Built()",
        ]),
        "b": "from .a import imported",
    }
    bench = ['SPANS = [("a", "spanned")]\nOPS = ["a.dotted"]\n"""Times in_a_sentence."""']
    assert uncalled_public_names(sources, bench) == ["a.in_a_sentence", "a.recursive"]


def test_every_private_helper_has_a_caller_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert uncalled_private_names(sources) == []


def test_the_private_caller_scan_counts_only_the_package():
    sources = {
        "a": "\n".join([
            "def _helper(): pass",
            "def _recursive(): return _recursive()",
            "def _only_tests(): pass",
            "def _in_a_string(): pass",
            "class _Record: pass",
            "def __getattr__(name): return name",
            "def public(): return _helper()",
            'x = _Record(), "_in_a_string"',
        ]),
        "b": "from .a import public",
    }
    assert uncalled_private_names(sources) == ["a._in_a_string", "a._only_tests",
                                               "a._recursive"]


def unread_parameters(source):
    """`function(parameter)` of every parameter of a function of `source` that
    the function's body, nested functions included, never reads.  Lambdas are
    not scanned."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.extend(f"{node.name}({a.arg})" for a in params if a.arg not in read)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    # Command.run calls each cmd_* runner as (args, params), read or not
    found = [name for name in unread_parameters(path.read_text()) if not name.startswith("cmd_")]
    assert found == []


def test_the_parameter_scan_sees_every_kind_and_nested_reads():
    source = "\n".join([
        "def f(a, b, /, c, *args, d, **kw): return a",
        "def g(x):",
        "    def inner(y): return x",
        "    return inner",
        "def h(z): z = 1",
        "class C:",
        "    def m(self): pass",
        "key = lambda unread: 0",
    ])
    assert sorted(unread_parameters(source)) == [
        "f(args)", "f(b)", "f(c)", "f(d)", "f(kw)", "h(z)", "inner(y)", "m(self)"]
