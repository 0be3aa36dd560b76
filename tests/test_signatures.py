"""Tolerances are constants in maxcorr.defaults, not call arguments."""

import inspect

import pytest

from maxcorr import correlation, entanglement, linalg, states

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
