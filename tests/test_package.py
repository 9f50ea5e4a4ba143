"""The package namespace: every name each module lists in its __all__, and no other."""

import importlib
import pkgutil

import selfaffine

# the modules whose names the package exports; cli is the command line, run as a script
MODULES = ("affine", "attractor", "classifier", "cloud", "exactlinalg", "moment", "paraboloid",
           "polynomials", "pullback", "rationals", "series")


def test_every_library_module_is_exported():
    found = {module.name for module in pkgutil.iter_modules(selfaffine.__path__)}
    assert found - {"cli"} == set(MODULES)


def test_all_is_the_union_of_the_module_lists():
    names = set()
    for module_name in MODULES:
        module = importlib.import_module(f"selfaffine.{module_name}")
        assert not names & set(module.__all__)
        names |= set(module.__all__)
        for name in module.__all__:
            assert getattr(selfaffine, name) is getattr(module, name)
    assert sorted(selfaffine.__all__) == sorted(names | {"__version__"})


def test_names_the_modules_declared_are_exported():
    assert {"read_recipe", "certify_admissible", "InvarianceCounterexample", "DecayRow",
            "NORM_TOLERANCE", "WordCheck", "identity"} <= set(selfaffine.__all__)
