"""The package's public surface: `__all__` names each public object once,
and a star import binds exactly those, of the submodules only kernels and
errors, and importing it loads neither `dataclasses` nor `typing`."""

import os
import subprocess
import sys

import roughmap
from roughmap import errors, kernels


def test_star_import_binds_exactly_the_public_names():
    assert len(set(roughmap.__all__)) == len(roughmap.__all__) == 62
    star: dict = {}
    exec("from roughmap import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(roughmap.__all__)
    assert [v for v in star.values() if isinstance(v, type(roughmap))] == [kernels, errors]
    for name, value in star.items():
        assert getattr(roughmap, name) is value, name


def test_import_loads_neither_dataclasses_nor_typing():
    # with what they import, they cost a fresh interpreter about a third
    # of the package's import
    src = os.path.dirname(os.path.dirname(roughmap.__file__))
    code = "import roughmap.cli, sys; print([m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert (out.stdout, out.stderr) == ("[]\n", "")
