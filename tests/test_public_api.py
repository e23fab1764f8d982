"""The package's public names resolve, and the test-only routes stay out of it."""
import ast
import importlib
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


def test_only_nulldist_reads_its_private_names():
    """The null law has one home: no other module imports or reads a ``_`` name
    of ``nulldist``, so choosing the law and reading it stay in ``null_law``."""
    offenders = []
    for path in sorted(Path(cohercause.__file__).parent.glob("*.py")):
        if path.stem == "nulldist":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("nulldist"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "nulldist":
                names = [node.attr]
            else:
                continue
            offenders += [f"{path.stem}: {name}" for name in names if name.startswith("_")]
    assert offenders == []
