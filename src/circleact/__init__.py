"""circleact: exact-arithmetic decision procedure for free circle actions
on (n-1)-connected (2n+1)-manifolds with torsion-free homology, together
with every numeric ingredient of the computation (Bernoulli numbers,
image-of-J indices, the A-hat multiplicative sequence, Smith normal form,
and Gysin-sequence cohomology of circle bundles).

The package re-exports every public name of its layer modules; each
module's ``__all__`` is the one declaration of its surface.  Only
``__version__`` is bound on import: the first access to any other public
attribute (``__all__``, ``dir()`` and ``from circleact import *``
included) loads the four layers and binds their names, so ``import
circleact``, ``import circleact.cli`` or ``from circleact import cli``
stays cheap until a public name is touched."""

__version__ = "0.1.0"

_LAYERS = ("bernoulli", "classifier", "genus", "gradedtop")


def _load() -> None:
    """Import every layer and bind its ``__all__`` here, then ``__all__``."""
    # import_module, not ``from . import``: that probes this package's
    # attributes, which would call __getattr__ and so _load again
    from importlib import import_module

    # gradedtop, the largest layer, first: without a bytecode cache each
    # layer is compiled as it loads, and the smaller layers then reuse the
    # parser memory gradedtop frees instead of raising the peak RSS
    import_module(f"{__name__}.gradedtop")
    names = ["__version__"]
    for layer in _LAYERS:
        module = import_module(f"{__name__}.{layer}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    # only once: a later load would undo any rebinding made on the package.
    # ``from circleact import cli`` asks here first, so a private name or a
    # submodule that is not a layer loads nothing
    public = name == "__all__" or not (name.startswith("_") or name in ("cli", "selftest"))
    if public and "__all__" not in globals():
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return list(globals())
