"""Modules that execute on first attribute access.

The solver commands (``radii``, ``table``, ``compare``, ``baseline``)
are pure Python and need only ``errors`` and ``radii``; the array code of
``verify`` and ``sharpness`` needs ``polyfunc``, ``extremal``, ``verify``
and numpy, whose own import costs more than the rest of the package
together.  So the package registers its submodules with ``lazy_module``
and modules bind ``np = lazy_module("numpy")``: each module sits in
``sys.modules`` from the start, so that ``from .radii import ...`` and
``sys.modules["polylandau.verify"]`` find it, and its code runs on the
first attribute read, such as ``np.asarray``.

What each command loads: ``import polylandau`` runs this module alone;
``import polylandau.cli`` adds ``errors``, ``radii`` and ``cli``, and that
is all that ``radii``, ``table``, ``compare`` and ``baseline`` run, with
neither ``dataclasses`` nor ``inspect``.  ``verify`` and ``sharpness``
load ``polyfunc`` and ``extremal``, and with them ``dataclasses``, then
numpy on their first array; ``verify`` loads the module ``verify`` too.
``series``, the test oracle, loads only when asked for.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_module(name: str):
    """The module called name, executed on first attribute access (``importlib.util.LazyLoader``).

    Returns the module already in ``sys.modules`` when there is one, so
    every caller shares one module.  A submodule's package must be
    imported first.
    """
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
