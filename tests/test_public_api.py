"""The package namespace: ``geomrisk.__all__`` is exactly the union of the
library modules' public names, each resolvable and listed once, and the
package binds no other public name."""

from __future__ import annotations

import inspect
import typing

import geomrisk
from geomrisk import cli, copulas, distributions, estimators, experiments, losses, models, uniform_exact

LIBRARY_MODULES = (losses, estimators, distributions, copulas, models, uniform_exact, experiments)


def test_package_all_is_the_union_of_module_all():
    names = [n for n in geomrisk.__all__ if n != "__version__"]
    assert len(names) == len(set(names))
    union = set().union(*(m.__all__ for m in LIBRARY_MODULES))
    assert set(names) == union
    assert len(union) == 70
    # a module without __all__ would leak its own imports through the star import
    bound = {name for name, value in vars(geomrisk).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert bound <= union
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(geomrisk, name) is getattr(module, name)


def test_margin_and_copula_operations_are_methods_only():
    for name in ("margin_quantile", "margin_cdf", "margin_mean", "margin_var",
                 "margin_sample", "copula_sample", "copula_kendall_tau"):
        assert not hasattr(geomrisk, name)
    # a margin only describes its law; models.simulate draws, from copula uniforms
    for margin in typing.get_args(distributions.MarginSpec):
        assert not hasattr(margin, "sample")
        for method in ("quantile", "cdf", "mean", "var"):
            assert callable(getattr(margin, method))
    for copula in typing.get_args(copulas.CopulaSpec):
        assert callable(copula.sample)


def test_cli_exports_only_main():
    assert cli.__all__ == ["main"]
    assert not hasattr(cli, "run_selftest")
