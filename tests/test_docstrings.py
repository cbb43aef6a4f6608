"""Documentation gate: every public item carries a docstring.

"Doc comments on every public item" is a deliverable; this test keeps it
true as the library grows.
"""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.clique",
    "repro.clique.bits",
    "repro.clique.graph",
    "repro.clique.network",
    "repro.clique.node",
    "repro.clique.primitives",
    "repro.clique.routing",
    "repro.clique.simulation",
    "repro.clique.sorting",
    "repro.clique.transcript",
    "repro.engine",
    "repro.engine.base",
    "repro.engine.cache",
    "repro.engine.columnar",
    "repro.engine.delivery",
    "repro.engine.diff",
    "repro.engine.fast",
    "repro.engine.pool",
    "repro.engine.reference",
    "repro.service",
    "repro.service.client",
    "repro.service.protocol",
    "repro.service.server",
    "repro.algorithms",
    "repro.core",
    "repro.core.counting",
    "repro.core.protocols",
    "repro.core.hierarchy",
    "repro.core.nondeterminism",
    "repro.core.normal_form",
    "repro.core.edge_labelling",
    "repro.core.exponents",
    "repro.core.two_party",
    "repro.reductions",
    "repro.problems",
    "repro.analysis",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            # only check items defined in this package
            if not (getattr(obj, "__module__", "") or "").startswith("repro"):
                continue
            if not (obj.__doc__ and obj.__doc__.strip()):
                missing.append(name)
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr) and not (
                        attr.__doc__ and attr.__doc__.strip()
                    ):
                        missing.append(f"{name}.{attr_name}")
    assert not missing, f"{module_name}: undocumented public items {missing}"
