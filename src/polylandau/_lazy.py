"""numpy, loaded on first attribute access.

The solver commands (``radii``, ``table``, ``compare``, ``baseline``)
are pure Python; only the array code of ``verify`` and ``sharpness``
needs numpy.  Modules bind ``np = lazy_numpy()`` so that importing the
package does not run numpy's own import, which costs more than the rest
of the package together.  The first attribute read, such as
``np.asarray``, imports numpy in full.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_numpy():
    """The numpy module, imported on first attribute access (``importlib.util.LazyLoader``).

    Returns the module already in ``sys.modules`` when there is one, so
    every caller shares one numpy.
    """
    loaded = sys.modules.get("numpy")
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module
