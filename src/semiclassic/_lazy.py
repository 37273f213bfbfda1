"""Modules that load on first use, so that ``import semiclassic`` stays cheap."""

from __future__ import annotations

import importlib.util
import sys


def lazy(name: str):
    """The module ``name``, whose code runs on its first attribute access.

    A module already imported is returned as it is.  Otherwise a
    ``LazyLoader`` module is registered in ``sys.modules`` at once, so a
    later ``import name`` anywhere gets this same object, and its code runs
    when an attribute of it is first read.  Parent packages are imported
    now, since finding the module needs them.  The first access is not safe
    for concurrent use on Python 3.11: a second thread can see the module
    half run and miss an attribute.  Touch it from one thread first.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
