"""Scoped analysis-mode selection (generic / fast / vectorized).

Three modes drive the same analyses to bit-identical values:

``generic``
    The exact reference path — generic fixed-point drivers over the
    object model.  Always available, never cached.
``fast``
    The monomorphic all-int kernels of :mod:`repro.perf.kernels` plus
    the instance-keyed memos of :func:`memoised`.  Bit-identical to
    ``generic`` (property-tested), so **the default**.
``vectorized``
    The structure-of-arrays batch kernels of
    :mod:`repro.perf.vector`: whole batches of networks advance their
    fixed-point recurrences together, one instruction stream per sweep.
    Scalar (non-batch) entry points under this mode use the fast
    kernels — the vector engine engages at the batch drivers
    (:func:`repro.perf.batch.analyse_many`).  Without numpy the packed
    batches run the fast kernels too (the lane engine needs numpy).

The mode lives in a :class:`contextvars.ContextVar`, so a selection is
scoped to the thread (or asyncio task) that makes it: concurrent API
requests and daemon executor threads each see their own mode, and no
scope can leak its mode into another.  :func:`analysis_mode_set` is the
only writer; :func:`analysis_mode` and :func:`fast_path_enabled` are the
readers.  :func:`memoised` is the one place the memo policy lives: the
per-instance derived terms of :mod:`repro.profibus` (``C_M^k``,
``Tdel``, staged task sets, per-``Tcycle`` rows) are all cached through
it, and none of them reads the mode itself.  Pool worker processes
receive the mode in their chunk payload (:mod:`repro.perf.batch`).
``REPRO_DISABLE_NUMPY`` is honoured by :mod:`repro.perf.vector`: it
hides numpy, so packs run the scalar kernels.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

#: The recognised analysis modes, in baseline-first order.
ANALYSIS_MODES = ("generic", "fast", "vectorized")

_mode: ContextVar[str] = ContextVar("analysis_mode", default="fast")


def analysis_mode() -> str:
    """The active analysis mode (``generic``/``fast``/``vectorized``)."""
    return _mode.get()


@contextmanager
def analysis_mode_set(mode: str):
    """Run a block under ``mode``, restoring the previous mode after."""
    if mode not in ANALYSIS_MODES:
        raise ValueError(
            f"unknown analysis mode {mode!r} (expected one of {ANALYSIS_MODES})"
        )
    token = _mode.set(mode)
    try:
        yield
    finally:
        _mode.reset(token)


def fast_path_enabled() -> bool:
    """Are the specialised integer kernels active?

    True under both accelerated modes: the vectorized mode uses the
    fast scalar kernels wherever the vector engine does not apply
    (single-network entry points, unpackable networks).
    """
    return _mode.get() != "generic"


def memoised(owner, slot: str, key, fn, *args):
    """``fn(*args)``, cached in one slot on the immutable ``owner``.

    The memo rule of the analysis layer: ``generic`` mode never reads
    or writes a slot.  Otherwise the instance attribute ``slot`` holds
    one ``(key, value)`` pair; a stored key that ``is`` or ``==`` ``key``
    (the inputs the owner does not carry, e.g. ``Tcycle`` or the PHY)
    returns the stored value, anything else recomputes and replaces it.
    One slot keeps memory bounded under fine-grained TTR sweeps.

    Instance-keyed, not value-keyed, on purpose: sweeps re-analyse the
    *same* objects thousands of times, while baselines on fresh but
    value-equal networks must not get accidental hits.  Slot names are
    ``_memo_<term>``: the leading underscore makes the owners'
    ``__getstate__`` drop them from pickles (workers rebuild them
    locally), and the prefix sets them apart from the always-on memos.
    """
    if _mode.get() == "generic":
        return fn(*args)
    entry = owner.__dict__.get(slot)
    if entry is not None and (entry[0] is key or entry[0] == key):
        return entry[1]
    value = fn(*args)
    object.__setattr__(owner, slot, (key, value))
    return value
