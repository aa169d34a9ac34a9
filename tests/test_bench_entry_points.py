"""The traced benchmark's entry points still exist in ``src/``.

``bench/timers.py`` wraps the functions and methods named in its
``ENTRY_POINTS`` table, looked up by module and attribute path.  A
rename or deletion under ``src/`` would only surface when the traced
benchmark runs; resolving every entry here fails tier-1 instead.
"""

import pytest

from bench.timers import ENTRY_POINTS, resolve_entry

LOOKUPS = sorted({(module, path) for module, path, _name, _hook
                  in ENTRY_POINTS})


@pytest.mark.parametrize("module_name, path", LOOKUPS,
                         ids=[f"{m}:{p}" for m, p in LOOKUPS])
def test_entry_point_resolves(module_name, path):
    owner, attr = resolve_entry(module_name, path)
    assert callable(getattr(owner, attr))
