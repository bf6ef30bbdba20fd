"""The package's public names: ``enumeration`` and ``spectral`` load on
first access (PEP 562 ``__getattr__``), and the API reads as if they were
imported eagerly."""

import os
import subprocess
import sys

import pytest

import nbzagreb
from nbzagreb import enumeration, spectral

SRC = os.path.dirname(os.path.dirname(nbzagreb.__file__))


def test_every_public_name_resolves_and_is_listed():
    names = dir(nbzagreb)
    for name in nbzagreb.__all__:
        assert getattr(nbzagreb, name) is not None, name
        assert name in names, name
    assert nbzagreb.verify_all is enumeration.verify_all
    assert nbzagreb.spectral_report is spectral.spectral_report


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nbzagreb import *", namespace)
    assert set(nbzagreb.__all__) <= namespace.keys()
    assert namespace["find_equality_graphs"] is enumeration.find_equality_graphs


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nbzagreb.no_such_name  # noqa: B018
    assert not hasattr(nbzagreb, "_perm_table")


def test_lazy_names_are_read_from_the_submodule_and_not_stored(monkeypatch):
    # A name replaced in the submodule, as the benchmark's tracer does, is
    # what the package hands out; the package namespace is left as it was.
    before = dict(vars(nbzagreb))
    replacement = lambda *args, **kwargs: None  # noqa: E731
    monkeypatch.setattr(enumeration, "verify_all", replacement)
    assert nbzagreb.verify_all is replacement
    assert vars(nbzagreb) == before


def test_submodules_import_from_a_fresh_package():
    script = """if True:
        import sys, types
        import nbzagreb
        assert "nbzagreb.enumeration" not in sys.modules
        from nbzagreb import enumeration, _bulk
        assert isinstance(enumeration, types.ModuleType)
        assert enumeration is sys.modules["nbzagreb.enumeration"]
        assert _bulk is sys.modules["nbzagreb._bulk"]
        assert nbzagreb.canonical_form is enumeration.canonical_form
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
