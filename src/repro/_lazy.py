"""Lazy package re-exports (PEP 562 module ``__getattr__``)."""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(namespace: dict[str, Any], exports: dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` that resolves each name of ``exports``
    (name -> defining module) on first access and caches it in
    ``namespace``, the package's ``globals()``."""

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    return __getattr__
