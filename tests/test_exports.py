"""Every name a `cascadelab` module lists in `__all__` resolves.

A stale entry left behind when a function is deleted breaks
`from module import *` for every caller, so each module is checked both
by attribute and by a star import; so is the test-side `theory` module,
which holds the closed-form results the tests judge the package against.
The package star-imports its modules, so its own `__all__` must hold
every name they list. The package's only runtime dependency is numpy;
scipy and networkx serve the tests alone, no module names `numpy.fft`,
and only three functions loop over the trial engine.
Every result record is immutable and names its fields in its repr.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import cascadelab
from cascadelab import (
    EdgeListReport,
    MechanismScaleReport,
    MechanismSpec,
    chung_lu_weights,
    evaluate_attack,
    generate_er,
    record_worlds,
    world_blocks,
)
from theory import chung_lu_rank_envelope, solve_giant_fraction

SUBMODULES = [info.name for info in pkgutil.iter_modules(cascadelab.__path__)]
MODULES = ["cascadelab"] + [f"cascadelab.{name}" for name in SUBMODULES] + ["theory"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert [attr for attr in public if not hasattr(module, attr)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_reexports_every_public_name(name):
    """`cascadelab` star-imports each module that has an `__all__`, so it
    lists all their names."""
    module = importlib.import_module(f"cascadelab.{name}")
    assert set(getattr(module, "__all__", [])) <= set(cascadelab.__all__)


def test_imports_only_numpy_and_the_standard_library():
    """No module of the package imports anything but numpy, the standard
    library or the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "cascadelab"}
    foreign = []
    for path in sorted(Path(cascadelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert foreign == []


def test_no_module_names_numpy_fft():
    """The comparison TVD is summed in closed form: no module imports or
    calls `numpy.fft`, whose transforms need arrays as wide as the noise."""
    named = []
    for path in sorted(Path(cascadelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                named.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                modules.append(getattr(node, "module", None) or "")
                if any("fft" in module for module in modules):
                    named.append(f"{path.name}:{node.lineno}")
    assert named == []


def _functions_naming(name):
    """The package's functions that name `name`, once per mention."""
    users = []
    for path in sorted(Path(cascadelab.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, ast.FunctionDef):
                users += [
                    fn.name
                    for node in ast.walk(fn)
                    # a Name's id or an Attribute's attr
                    if getattr(node, "id", getattr(node, "attr", None)) == name
                ]
    return sorted(users)


def test_only_three_functions_iterate_world_blocks():
    """`record_worlds`, the sweep and the attack's evaluation are the only
    functions that name `world_blocks` in the package, once each: a new
    single-q estimator is a reduction of a `WorldRecord`, not a new loop.
    `world_blocks` alone names `trial_streams`: it is the one place that
    plans the trials and derives their streams."""
    users = _functions_naming("world_blocks")
    assert users == ["cmd_sweep", "evaluate_attack", "record_worlds"]
    assert _functions_naming("trial_streams") == ["world_blocks"]


def _records():
    g = generate_er(30, 0.1, rng_seed=3)
    spec = MechanismSpec("laplace", scale=1.0)
    attack = evaluate_attack(g, 0.5, 1, spec, [0.5], 10, 4)
    return [
        EdgeListReport(),
        chung_lu_weights(10, 2.0, 1.5),
        solve_giant_fraction(2.0),
        chung_lu_rank_envelope(1.5),
        spec,
        MechanismScaleReport(1.0, {0: 1.0}, {}),
        next(world_blocks(g, 0.5, 5, 2, s=1)),
        record_worlds(g, 0.5, None, 4, 6).membership(),
        record_worlds(g, 0.5, 1, 4, 7),
        attack.floors[0],
        attack,
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_name_their_fields(record):
    fields = list(inspect.signature(type(record)).parameters)
    for name in fields + ["added"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    text = repr(record)
    assert text.startswith(type(record).__name__ + "(")
    assert all(f"{name}=" in text for name in fields)
