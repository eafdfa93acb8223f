import importlib
import inspect
import pkgutil

import gfcap

# public names defined in a gfcap module that gfcap.__all__ leaves out on
# purpose: the command-line layer, which is reached through `gfcap` the
# program (gfcap.cli:main), not through the library namespace
NOT_EXPORTED = {
    "gfcap.cli": {"CheckFailure", "build_parser", "cmd_bounds",
                  "cmd_capacity", "cmd_counterexample", "cmd_simulate",
                  "cmd_sk_rate", "main"},
}


def test_every_export_resolves():
    missing = [name for name in gfcap.__all__ if not hasattr(gfcap, name)]
    assert missing == []
    assert len(set(gfcap.__all__)) == len(gfcap.__all__)


def test_star_import():
    namespace = {}
    exec("from gfcap import *", namespace)
    assert set(gfcap.__all__) <= set(namespace)


def test_every_public_definition_is_exported():
    unexported = []
    for info in pkgutil.iter_modules(gfcap.__path__):
        module = importlib.import_module(f"gfcap.{info.name}")
        allowed = NOT_EXPORTED.get(module.__name__, set())
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__
                    and name not in allowed and name not in gfcap.__all__):
                unexported.append(f"{module.__name__}.{name}")
    assert unexported == []


def test_allowlist_names_exist():
    # a stale allowlist entry would hide nothing and mislead the reader
    for module_name, names in NOT_EXPORTED.items():
        module = importlib.import_module(module_name)
        assert {n for n in names if not hasattr(module, n)} == set()


def test_removed_noise_sampler_is_gone():
    assert not hasattr(gfcap, "sample_noise_path")
    assert not hasattr(gfcap.spectrum, "sample_noise_path")
    assert "sample_noise_path" not in gfcap.__all__


def test_removed_alpha_minimizer_is_gone():
    # the minimum over alpha comes from chen_yanagi_curve, with the curve
    assert not hasattr(gfcap, "minimize_cy")
    assert not hasattr(gfcap.feedback, "minimize_cy")
    assert "minimize_cy" not in gfcap.__all__
