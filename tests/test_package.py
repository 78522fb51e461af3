"""The package's public surface: `__all__` names each public object once,
and a star import binds exactly those, of the submodules only kernels and
errors, and importing it loads neither `dataclasses` nor `typing`, nor
`json` (with `re`) until a document is read or written."""

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


def _loaded_after(module: str, names: tuple) -> str:
    """Which of `names` a fresh interpreter has loaded after importing module."""
    src = os.path.dirname(os.path.dirname(roughmap.__file__))
    code = f"import {module}, sys; print([m for m in {names!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert out.stderr == ""
    return out.stdout


def test_import_loads_neither_dataclasses_nor_typing():
    # with what they import, they cost a fresh interpreter about a third
    # of the package's import
    assert _loaded_after("roughmap.cli", ("dataclasses", "typing", "inspect")) == "[]\n"


def test_import_leaves_json_unloaded():
    # json, with the re it imports, cost a fresh interpreter about 6 ms;
    # docio imports it where a document is read or written.  The CLI's
    # argparse imports re, so only json is left out there
    assert _loaded_after("roughmap", ("json", "re")) == "[]\n"
    assert _loaded_after("roughmap.cli", ("json",)) == "[]\n"
