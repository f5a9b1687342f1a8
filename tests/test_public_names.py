"""The package's public names: each is declared once, in its import in
``effham/__init__.py``, and a star import binds exactly those names."""

import io
import tokenize
import types
from collections import Counter
from pathlib import Path

import effham

INIT = Path(effham.__file__)


def test_star_import_binds_the_76_public_names_and_no_submodule():
    namespace = {}
    exec("from effham import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 76
    assert sorted(namespace) == sorted(effham.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    for name, value in namespace.items():
        assert getattr(effham, name) is value


def test_each_public_name_is_spelled_once_in_the_package_init():
    # a name listed in ``__all__`` as well as imported would be spelled twice
    spelled = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(INIT.read_text()).readline):
        if tok.type == tokenize.NAME:
            spelled[tok.string] += 1
        elif tok.type == tokenize.STRING:
            spelled[tok.string.strip("'\"")] += 1
    assert {name: spelled[name] for name in effham.__all__ if spelled[name] != 1} == {}
