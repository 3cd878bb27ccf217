"""Verification-grade engine for the group theory of abstract class field
theory over finite models: transfer maps, cohomological Mackey functors,
abstract ramification with Frobenius lifts, reciprocity morphisms, and
higher-rank discrete valuations on truncated Laurent-series fields.

The names in ``__all__`` are imported from their modules on first access,
so ``import classfield`` loads no engine module.
"""

import importlib

_HOMES = {**dict.fromkeys(("AbHom", "FgAbGroup", "group_order", "smith_decompose"), "abelian"),
          **dict.fromkeys(("FiniteGroup", "Subgroup", "Transversal"), "groups"),
          **dict.fromkeys(("RamificationDatum", "SupernaturalNumber"), "ramification")}
__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
