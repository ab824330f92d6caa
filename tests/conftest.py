import types
from pathlib import Path

import pytest


@pytest.fixture
def compiled():
    """A loader of a package module as `python -O` would run it: with
    flags ["-O"] a fresh copy of the module's source compiled at
    optimize=1, which drops every `assert` and `if __debug__:` block, and
    with flags [] the module as imported. The copy is a fresh execution
    of the source, so every statement the import runs runs again (the
    CLI's parser is built and its patterns compiled), while the modules
    it imports stay shared. A fault injected into the copy with
    monkeypatch reaches only the copy's own functions."""

    def load(module, flags):
        if not flags:
            return module
        copy = types.ModuleType(module.__name__)
        copy.__file__ = module.__file__
        copy.__package__ = module.__package__
        source = Path(module.__file__).read_text(encoding="utf-8")
        exec(compile(source, module.__file__, "exec", optimize=1), copy.__dict__)
        return copy

    return load
