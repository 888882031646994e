"""Repository hygiene: docs exist, public API is documented, the
experiment index maps to real runner cells, no module-level import
goes unused and no definition in ``src`` goes unreferenced."""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil
import re
from collections import Counter

import repro
from repro.server.provider import RECORD_KINDS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SUBPACKAGES = [
    "sim", "crypto", "hardware", "tpm", "drtm", "os", "net",
    "server", "core", "baselines", "user", "bench",
]


def _all_modules():
    package_path = pathlib.Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(package_path)], prefix="repro."):
        yield info.name


class TestDocumentation:
    def test_required_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO_ROOT / name
            assert path.exists(), f"{name} missing"

    def test_design_lists_every_subpackage(self):
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for subpackage in SUBPACKAGES:
            assert f"repro.{subpackage}" in design, subpackage

    def test_every_module_has_a_docstring(self):
        undocumented = []
        for name in _all_modules():
            module = importlib.import_module(name)
            if not (module.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_class_and_function_documented(self):
        import inspect

        undocumented = []
        for name in _all_modules():
            module = importlib.import_module(name)
            for attr_name, attr in vars(module).items():
                if attr_name.startswith("_"):
                    continue
                if not (inspect.isclass(attr) or inspect.isfunction(attr)):
                    continue
                if getattr(attr, "__module__", None) != name:
                    continue  # re-export; documented at its home
                if not (attr.__doc__ or "").strip():
                    undocumented.append(f"{name}.{attr_name}")
        assert not undocumented, (
            f"public items without docstrings: {undocumented}"
        )

    def test_public_api_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert getattr(repro, name, None) is not None, name

    def test_examples_in_readme_exist(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        examples_dir = REPO_ROOT / "examples"
        for script in examples_dir.glob("*.py"):
            assert script.name in readme, f"{script.name} not mentioned in README"

    def test_readme_tracing_snippet_runs(self, capsys):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Breaking down a session", 1)[1]
        snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(snippet, "README.md:Breaking down a session", "exec"), {})
        printed = capsys.readouterr().out
        assert "pal_human" in printed


def _index_cell_ids():
    """Runner cell IDs named in the last column of DESIGN.md §4's index."""
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    table = design.split("| ID | Experiment |")[1].split("\n\n")[0]
    ids = set()
    for line in table.splitlines()[2:]:  # skip header tail and separator
        last_column = line.rstrip(" |").rsplit("|", 1)[1]
        ids.update(part.strip(" `") for part in last_column.split(","))
    return ids


class TestExperimentIndex:
    def test_every_index_entry_has_a_runner_cell(self):
        from repro.bench.runner import build_cells

        cell_ids = {cell.cell_id for cell in build_cells()}
        assert _index_cell_ids() <= cell_ids

    def test_every_runner_cell_is_in_the_index(self):
        from repro.bench.runner import build_cells

        indexed = _index_cell_ids()
        for smoke in (False, True):
            for cell in build_cells(smoke):
                assert cell.cell_id in indexed, cell.cell_id


class TestPackagingMetadata:
    def test_version_consistent(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert f'version = "{repro.__version__}"' in pyproject

    def test_setup_shim_matches(self):
        setup_py = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        assert repro.__version__ in setup_py


#: Trees whose modules must not import a name they never use (pyflakes
#: F401, checked here too so the tier-1 suite catches it without ruff).
LINTED_TREES = ("src", "tests", "benchmarks", "examples")


def _names_used(tree: ast.Module) -> set:
    """Every bare name a module loads, plus the names inside strings
    that parse as expressions: string annotations
    (``Optional["FaultInjector"]``) and ``__all__`` entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                inner.id for inner in ast.walk(expression)
                if isinstance(inner, ast.Name)
            )
    return used


def _unused_imports(path: pathlib.Path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _names_used(tree)
    statements = list(tree.body)
    for statement in statements:
        # Imports guarded at module level (``if TYPE_CHECKING:``, ``try:``).
        if isinstance(statement, (ast.If, ast.Try)):
            statements.extend(ast.iter_child_nodes(statement))
            continue
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.ImportFrom) and (
            statement.module == "__future__"
        ):
            continue
        span = lines[statement.lineno - 1 : statement.end_lineno]
        if any("# noqa" in line for line in span):
            continue
        for alias in statement.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                yield f"{path.relative_to(REPO_ROOT)}:{statement.lineno} {bound}"


class TestImports:
    def test_no_unused_module_level_imports(self):
        unused = [
            finding
            for tree in LINTED_TREES
            for path in sorted((REPO_ROOT / tree).rglob("*.py"))
            if path.name != "__init__.py"
            for finding in _unused_imports(path)
        ]
        assert not unused, f"unused imports: {unused}"


#: Trees searched for a use of each ``src`` definition: the program and
#: everything that drives it.
REFERENCE_TREES = LINTED_TREES + ("perf",)

_WORD = re.compile(r"[A-Za-z_]\w*")


def _called_by_name(name: str) -> bool:
    """Definitions that no source line names, yet the program reaches:
    dunder methods (the interpreter calls them), ``_sunder_`` hooks
    (``enum`` calls ``_missing_`` and friends on subclasses) and the
    TPM's ``_cmd_*`` handlers (``TpmDevice`` dispatches with
    ``getattr(self, f"_cmd_{command}")``)."""
    if name.startswith("__") and name.endswith("__"):
        return True
    if len(name) > 2 and name[0] == name[-1] == "_" and name[1] != "_":
        return True
    return name.startswith("_cmd_")


class TestDeadDefinitions:
    def test_every_src_definition_is_referenced(self):
        """A function, method or class in ``src`` whose name no module
        loads, reads as an attribute, passes as a keyword, imports or
        spells in a string is dead code: nothing can reach it."""
        definitions = []
        referenced = set()
        for tree in REFERENCE_TREES:
            for path in sorted((REPO_ROOT / tree).rglob("*.py")):
                module = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(module):
                    if isinstance(node, ast.Name):
                        referenced.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        referenced.add(node.attr)
                    elif isinstance(node, ast.alias):
                        referenced.update(node.name.split("."))
                    elif isinstance(node, ast.keyword) and node.arg:
                        referenced.add(node.arg)
                    elif isinstance(node, ast.Constant) and isinstance(
                        node.value, str
                    ):
                        referenced.update(_WORD.findall(node.value))
                    elif tree == "src" and isinstance(
                        node,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        definitions.append(
                            (path.relative_to(REPO_ROOT), node.lineno, node.name)
                        )
        dead = [
            f"{path}:{line} {name}"
            for path, line, name in definitions
            if name not in referenced and not _called_by_name(name)
        ]
        assert not dead, f"definitions nothing references: {dead}"


PROVIDER = REPO_ROOT / "src" / "repro" / "server" / "provider.py"


def _written_kinds() -> set:
    """Every record kind ``provider.py`` writes as a ``"t": "<kind>"``
    literal (either arm of a conditional included), and every kind a
    ``note_migration("<kind>", ...)`` call in ``src`` names."""
    kinds = set()
    for node in ast.walk(ast.parse(PROVIDER.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Dict):
            kinds.update(
                inner.value
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant) and key.value == "t"
                for inner in ast.walk(value)
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
            )
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "note_migration"
            ):
                assert isinstance(node.args[0], ast.Constant), (
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno} names its "
                    "marker kind by a non-literal"
                )
                kinds.add(node.args[0].value)
    return kinds


def _table_entries() -> Counter:
    """The keys of the ``RECORD_KINDS`` literal, with their counts (a
    repeated key in a dict literal silently keeps only the last)."""
    for node in ast.walk(ast.parse(PROVIDER.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "RECORD_KINDS"
        ):
            return Counter(key.value for key in node.value.keys)
    raise AssertionError("provider.py defines no RECORD_KINDS literal")


class TestRecordKinds:
    def test_every_written_kind_has_exactly_one_table_entry(self):
        entries = _table_entries()
        assert [k for k, n in entries.items() if n > 1] == []
        assert set(entries) == set(RECORD_KINDS)
        written = _written_kinds()
        assert sorted(written - set(entries)) == [], "kinds with no table entry"
        assert sorted(set(entries) - written) == [], "table entries never written"
