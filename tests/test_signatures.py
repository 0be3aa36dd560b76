"""Tolerances are constants in maxcorr.defaults, not call arguments."""

import argparse
import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

import maxcorr
from maxcorr import cli, correlation, entanglement, linalg, states

MODULES = (linalg, correlation, entanglement, states)


def callables(module):
    """(qualified name, callable) for every function and class defined in module, and each class's methods.

    A class stands for its constructor, so __init__ is not listed twice.
    """
    for name, obj in vars(module).items():
        if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
            continue
        yield f"{module.__name__}.{name}", obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and attr != "__init__":
                    yield f"{module.__name__}.{name}.{attr}", member


def tolerance_parameters(module):
    return [
        f"{where}({param})"
        for where, obj in callables(module)
        for param in inspect.signature(obj).parameters
        if param.endswith("tol") or param == "cut_rel"
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_function_takes_a_tolerance(module):
    assert tolerance_parameters(module) == []


def test_decomposition_search_takes_exactly_the_parameters_of_bracket():
    def params(f):
        return [(p.name, p.default) for p in inspect.signature(f).parameters.values()]

    assert params(entanglement.decomposition_search) == params(entanglement.bracket)


def test_only_support_cut_reads_the_rank_tolerance():
    """One support rule: every other function asks linalg.support_cut which eigenvalues count."""
    readers = [
        where
        for module in MODULES
        for where, obj in callables(module)
        if "RANK_TOL" in getattr(getattr(obj, "__code__", None), "co_names", ())
    ]
    assert readers == ["maxcorr.linalg.support_cut"]


def test_only_psd_floor_reads_the_psd_tolerance():
    """One positivity rule: check_psd, validate and ppt_check all compare against linalg.psd_floor."""
    readers = [
        where
        for module in MODULES
        for where, obj in callables(module)
        if "PSD_TOL" in getattr(getattr(obj, "__code__", None), "co_names", ())
    ]
    assert readers == ["maxcorr.linalg.psd_floor"]


def package_sources():
    return sorted(Path(linalg.__file__).parent.glob("*.py"))


def test_no_module_declares_all():
    """maxcorr/__init__.py's imports are the one list of public names; no module keeps a second one in __all__."""
    assigned = [
        path.name
        for path in package_sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for target in (node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)])
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert assigned == []


def test_every_public_name_is_defined_where_the_package_imports_it_from():
    """The package re-exports each name from its defining module, never through a second module."""
    init = Path(maxcorr.__file__)
    imported = [
        (node.module, alias.asname or alias.name)
        for node in ast.parse(init.read_text(), filename=str(init)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 50
    assert [(mod, name) for mod, name in imported if getattr(maxcorr, name).__module__ != f"maxcorr.{mod}"] == []


def code_names(code):
    """The global and attribute names a code object reads, with those of the functions nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= code_names(const)
    return names


def test_no_function_reads_the_environment():
    """Reports depend only on input, flags and seed: nothing consults os.environ or os.getenv."""
    readers = [
        where
        for module in MODULES + (cli,)
        for where, obj in callables(module)
        if hasattr(obj, "__code__") and {"environ", "getenv"} & code_names(obj.__code__)
    ]
    assert readers == []


def test_the_library_imports_nothing_but_numpy_and_the_standard_library():
    """The package is pure numpy: every absolute import in src/maxcorr names numpy or a standard module."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "__future__"}
    found = set()
    for path in package_sources():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert {"numpy", "argparse"} <= {name for _, name in found}
    assert sorted((f, name) for f, name in found if name not in allowed) == []


def readme_cli_table():
    """{command: description} from README's CLI reference table, the command being its cell's first word."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## CLI reference", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return {cells[0].strip("| `").split()[0]: cells[1] for cells in rows}


def test_readme_names_exactly_the_parsers_subcommands_and_suites():
    """The CLI reference cannot drift from build_parser() or cli.SUITES."""
    table = readme_cli_table()
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(table) == sorted(subparsers.choices)
    assert re.findall(r"`([\w-]+)`", table["suite"].split("names:", 1)[1]) == list(cli.SUITES)
