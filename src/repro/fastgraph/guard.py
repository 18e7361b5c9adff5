"""Opt-in numpy error-state guard, env-propagated to worker processes.

The overflow sanitizer (``hyperbutterfly sanitize --mode overflow``)
re-runs stock kernel targets with numpy configured to *raise* on
overflow/invalid instead of printing a warning once.  The trap must also
reach pool workers — and under the spawn start method a child shares
nothing with the parent, so an in-process ``np.seterr`` call would never
arrive.  The guard is therefore an environment-variable protocol: the
sanitizer exports :data:`ERRSTATE_ENV` and every worker initializer calls
:func:`install_errstate_from_env`.

This lives in ``fastgraph`` (not ``devtools``) so the layer-3 worker
initializers can import it without reaching up the layer stack.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["ERRSTATE_ENV", "install_errstate_from_env"]

#: comma-separated ``key=action`` pairs for numpy.seterr, e.g.
#: ``over=raise,invalid=raise``
ERRSTATE_ENV = "REPRO_NUMPY_ERRSTATE"


def install_errstate_from_env() -> bool:
    """Apply the :data:`ERRSTATE_ENV` spec to this process, if set.

    Returns whether a spec was applied.  Malformed entries raise loudly
    (:class:`~repro.errors.InvalidParameterError` from this parser,
    ``TypeError`` from ``np.seterr`` itself) — a sanitizer run must never
    proceed silently without its trap.
    """
    spec = os.environ.get(ERRSTATE_ENV, "").strip()
    if not spec:
        return False
    kwargs: dict[str, str] = {}
    for part in spec.split(","):
        key, _, action = part.strip().partition("=")
        if not key or not action:
            raise InvalidParameterError(
                f"malformed {ERRSTATE_ENV} entry {part!r}"
            )
        kwargs[key] = action
    np.seterr(**kwargs)
    return True
