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
import types


class _LazyModule(types.ModuleType):
    """A module whose code runs on the first read of any of its attributes; it is a plain module from then on.

    Code that raises leaves the module lazy, so every later read runs it
    again and raises again.  The import system reads ``__spec__`` of a
    module it finds in ``sys.modules`` and drops any error that read
    raises, so a module that stayed half-run after a failure would
    surface as a misleading ImportError or AttributeError elsewhere.
    """

    def __getattribute__(self, attr):
        self.__class__ = types.ModuleType  # stops this method: the code below reads attributes plainly
        try:
            self.__spec__.loader.exec_module(self)
        except BaseException:
            self.__class__ = _LazyModule
            raise
        return getattr(self, attr)


def lazy_module(name: str):
    """The module called name, executed on first attribute access (``_LazyModule``).

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
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[name] = module
    return module
