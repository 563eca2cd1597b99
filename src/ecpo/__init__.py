"""Deterministic toolkit for layered-constraint policy validation.

Parses structured driving-mediation policy documents, scores them with a
weighted composite of constraint compliance, evidence coverage, and
structural integrity, derives preference pairs for offline optimization,
retrieves and compresses constraint snippets from a versioned store, and
evaluates candidate corpora under a fixed offline metric protocol.
"""

import gc

__version__ = "0.1.0"

_MODULES = frozenset(
    {"cli", "config", "context", "errors", "metrics", "policy", "preference", "store", "textnorm", "validator"}
)


def __getattr__(name: str):
    """``ecpo.<module>`` imports that module on first use; nothing loads them all up front."""
    if name in _MODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run() -> int:
    """The ``ecpo`` executable, which ``python -m ecpo.cli`` starts too: the command's exit code.

    What the package's imports build lives as long as the process, so no collection walks it: the cyclic collector is
    off while the modules load, ``gc.freeze`` then sets their heap aside, and the collector is on again to free the
    cycles the command itself leaves. Importing the package or ``ecpo.cli`` leaves the collector as it was.
    """
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    return main()
