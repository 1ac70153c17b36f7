"""Discrete causal toolkit for rating-variable analysis.

Decides by graph criteria and information measures whether a rating
variable (claim history in particular) is deprecable noise, and
identifies causal effects of driving behavior on future claims via
front-door adjustment, validated against exact graph-surgery oracles.

``import causalrating`` loads only the NumPy-free layers, ``errors`` and
``graph`` (the verdicts included).  The NumPy-backed layers ``scm``,
``info``, ``identify`` and ``road_risk``, and every name in their
``__all__``, are imported on first access (PEP 562), so graph-only work
never loads NumPy.  A missing or broken NumPy therefore raises at the
first use of such a name, not at import; an unknown name,
``causalrating.__all__`` and ``dir(causalrating)`` import every layer.
"""

import importlib as _importlib

from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403

_LAYERS = ("scm", "info", "identify", "road_risk")
_EAGER = [name for name in globals() if not name.startswith("_")]


def __getattr__(name):
    """Import a NumPy-backed layer, or keep here the public name of the
    first in ``_LAYERS`` whose ``__all__`` holds it: each imports the ones
    before it, so the search loads no more than the name's own layer.
    ``__all__`` imports every layer."""
    if name in _LAYERS:
        return _importlib.import_module(f"{__name__}.{name}")  # binds the layer here
    names = [*_EAGER]
    for layer in _LAYERS:
        module = __getattr__(layer)
        if name in module.__all__:
            return globals().setdefault(name, getattr(module, name))
        names += [layer, *module.__all__]
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, list(dict.fromkeys(names)))


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})


__version__ = "0.1.0"
