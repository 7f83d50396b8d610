"""circleact: exact-arithmetic decision procedure for free circle actions
on (n-1)-connected (2n+1)-manifolds with torsion-free homology, together
with every numeric ingredient of the computation (Bernoulli numbers,
image-of-J indices, the A-hat multiplicative sequence, Smith normal form,
and Gysin-sequence cohomology of circle bundles).

The package re-exports every public name of its layer modules; each
module's ``__all__`` is the one declaration of its surface."""

from __future__ import annotations

__version__ = "0.1.0"

from . import bernoulli, classifier, genus, gradedtop
from .bernoulli import *  # noqa: F401,F403
from .classifier import *  # noqa: F401,F403
from .genus import *  # noqa: F401,F403
from .gradedtop import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *bernoulli.__all__,
    *classifier.__all__,
    *genus.__all__,
    *gradedtop.__all__,
]
