"""Scalar mirrors of numpy ufuncs for hot per-tick paths.

The ADS pipeline and the scripted traffic step clamp a handful of
scalars every tick; going through ``np.clip`` costs a ufunc dispatch per
call, which profiles as ~20% of a validation campaign.  ``clip_scalar``
is the plain-Python replacement.

Bit-for-bit contract: ``clip_scalar(x, lo, hi)`` equals
``float(np.clip(x, lo, hi))`` for *every* IEEE-754 double value ``x`` —
signed zeros, NaNs (which propagate through both failed comparisons),
infinities, and denormals — over every *ordered* bound pair
(``lo <= hi``, signed zeros in either slot).  The caveat exists because
numpy composes ``minimum(maximum(x, lo), hi)``: with NaN or inverted
(``lo > hi``) bounds that composition answers differently than the
compare-and-select below — and no call site can produce such bounds.
This equivalence is regression-tested in ``tests/test_kinematics.py``.
Keep the comparison order if you touch this.

:func:`numpy_trig_exact` is the one trig gate: float kernels that call
:mod:`math` trig stand in for numpy's only on hosts where the two agree
bit for bit (the scalar RK4 in :mod:`repro.sim.kinematics`, the safety
tables in :mod:`repro.core.safety`).
"""

from __future__ import annotations

import math

import numpy as np


def clip_scalar(value: float, low: float, high: float) -> float:
    """Clamp ``value`` to ``[low, high]``; bitwise-equal to ``np.clip``."""
    if value < low:
        return float(low)
    if value > high:
        return float(high)
    return float(value)


_TRIG_EXACT: bool | None = None


def numpy_trig_exact() -> bool:
    """Whether ``np.sin``/``np.cos`` match ``math.sin``/``math.cos`` bit
    for bit on this host, checked once on first use.

    Some numpy builds evaluate trig with SIMD approximations that differ
    from the C library in the last ulp; on those hosts the float kernels
    keep numpy's trig (the scalar RK4) or fall back to their scalar
    oracles (the safety tables).  The sample spans the headings a
    maneuver reaches, near zero and far out, as contiguous arrays like
    the batched kernels'.  ``tan`` is not covered: ``math.tan`` and
    ``np.tan`` differ in the last ulp on some angles even where ``sin``
    and ``cos`` agree, so each kernel keeps the ``tan`` its oracle uses.
    """
    global _TRIG_EXACT
    if _TRIG_EXACT is None:
        rng = np.random.default_rng(0)
        magnitudes = np.geomspace(1e-12, 1.0, 64)
        sample = np.concatenate([
            rng.uniform(-0.05, 0.05, 1024), rng.uniform(-2.0, 2.0, 1024),
            rng.uniform(-64.0, 64.0, 1024), magnitudes, -magnitudes,
            [0.0, -0.0, math.pi]])
        _TRIG_EXACT = all(
            np.array_equal(fast(sample).view(np.int64),
                           np.array([exact(a) for a in sample.tolist()]
                                    ).view(np.int64))
            for fast, exact in ((np.sin, math.sin), (np.cos, math.cos)))
    return _TRIG_EXACT
