"""The package's public names resolve, and the test-only routes stay out of it."""
import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

import cohercause

MODULES = ("covariance", "coherence", "nulldist", "inference", "simulate", "experiments")

# Independent routes that only the tests call; they live in tests/reference.py.
REFERENCE_ONLY = {
    "covariance": (
        "ConditionalCovariances", "assemble_composite", "conditional_covariances",
        "inv_sqrt_spd", "log_det_spd",
    ),
    "coherence": (
        "coherence_matrix", "partial_canonical_correlations", "conditional_estimator_gain",
    ),
    "simulate": ("model_composite_covariance",),
}


@pytest.mark.parametrize("module", ["cohercause", *(f"cohercause.{m}" for m in MODULES)])
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", [*MODULES, "cli", "streams"])
def test_annotations_resolve(module):
    # Every annotation of a module's functions, classes and methods names what the
    # module binds, so that typing.get_type_hints, and the tools built on it, can read it.
    mod = importlib.import_module(f"cohercause.{module}")
    for obj in vars(mod).values():
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__:
            methods = [v for v in vars(obj).values() if inspect.isfunction(v)]
            for target in [obj, *(methods if inspect.isclass(obj) else [])]:
                typing.get_type_hints(target)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cohercause import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(cohercause.__all__)


@pytest.mark.parametrize("module", sorted(REFERENCE_ONLY))
def test_reference_routes_are_not_in_the_package(module):
    home = importlib.import_module(f"cohercause.{module}")
    for name in REFERENCE_ONLY[module]:
        assert not hasattr(cohercause, name), name
        assert not hasattr(home, name), name


def test_covariance_sequences_have_no_lag_lookups():
    for name in ("_at", "xx_at", "yy_at", "xy_at"):
        assert not hasattr(cohercause.CovarianceSequences, name), name


def reads_of(home):
    """``(module, name)`` for each name another package module imports or reads
    from ``home``."""
    reads = []
    for path in sorted(Path(cohercause.__file__).parent.glob("*.py")):
        if path.stem == home:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(home):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == home:
                names = [node.attr]
            else:
                continue
            reads += [(path.stem, name) for name in names]
    return reads


def test_only_nulldist_reads_its_private_names():
    """The null law has one home: no other module imports or reads a ``_`` name
    of ``nulldist``, so choosing the law and reading it stay in ``null_law``."""
    assert [read for read in reads_of("nulldist") if read[1].startswith("_")] == []


def test_cli_reads_no_private_inference_name():
    """``cli test`` goes through the library's door, ``lag_embed`` and then
    ``test_causal_influence``: the CLI imports or reads no ``_`` name of
    ``inference``."""
    reads = [read for read in reads_of("inference") if read[0] == "cli"]
    assert reads and [read for read in reads if read[1].startswith("_")] == []


def test_null_law_has_one_door():
    """Other modules take from ``nulldist`` only its spec, ``null_law`` and the
    two defaults. The package's star import re-exports the public names."""
    door = {"WilksLambdaSpec", "null_law", "DEFAULT_N_MC", "DEFAULT_SEED"}
    reads = [read for read in reads_of("nulldist") if read != ("__init__", "*")]
    assert [read for read in reads if read[1] not in door] == []


def test_one_thread_pool_site():
    """Every study's statistics come from one step with one pool: the package
    builds ``ThreadPoolExecutor(`` at exactly one site."""
    sites = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(Path(cohercause.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "ThreadPoolExecutor" in (getattr(node.func, name, None) for name in ("id", "attr"))
    ]
    assert len(sites) == 1, sites
