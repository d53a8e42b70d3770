"""The miner's table-key dedup against its float-pair oracle.

``_quantized_keys`` deduplicates a batch's quantized ``(v, phi)`` keys
on integer codes packed into one int64.  The oracle is the float path
it replaced: round to floats, then ``np.unique(pairs, axis=0)``.  Both
must give the same keys in the same order and the same inverse, and
every key must be the scalar lookups' own quantization, bit for bit.
"""

import struct

import numpy as np
import pytest

from repro.core.bayesian_fi import _quantized_keys
from repro.core.safety import _quantize

#: (v step, phi step) of the stop table and of the excursion table.
STEPS = [(0.05, 5e-4), (0.1, 1e-3)]


def oracle_keys(v, phi, v_step, phi_step):
    """The float-pair dedup: ``np.unique`` over rounded float rows."""
    v_q = np.round(np.maximum(v, 0.0) / v_step) * v_step
    phi_q = np.round(phi / phi_step) * phi_step
    unique, inverse = np.unique(np.column_stack([v_q, phi_q]), axis=0,
                                return_inverse=True)
    return [(a, b) for a, b in unique.tolist()], np.ravel(inverse)


def scalar_key(v, phi, v_step, phi_step):
    """The scalar lookups' quantization (``stopping_displacement``,
    ``steering_excursion``): Python ``round`` gives an int code."""
    return (round(max(v, 0.0) / v_step) * v_step,
            round(phi / phi_step) * phi_step)


def bits(key):
    return struct.pack("<dd", *key)


def boundary_values(step, n=6):
    """Values on the rounding boundaries ``(k + 1/2) * step``, both
    signs, and their neighbours one float away."""
    half = (np.arange(n) + 0.5) * step
    values = np.concatenate([half, -half])
    return np.concatenate([values, np.nextafter(values, np.inf),
                           np.nextafter(values, -np.inf)])


def batches(v_step, phi_step):
    rng = np.random.default_rng(3)
    v_edge = boundary_values(v_step)
    phi_edge = boundary_values(phi_step)
    return {
        "single row": (np.array([7.3]), np.array([-0.012])),
        "single row at zero": (np.array([0.0]), np.array([-0.0])),
        "speeds clamped at 0": (np.array([-3.0, -0.01, -0.0, 0.0, 0.01]),
                                np.array([0.1, 0.1, 0.1, 0.1, 0.1])),
        "signed zero steering": (
            np.array([5.0, 5.0, 5.0, 5.0, 5.0]),
            np.array([0.0, -0.0, -0.2 * phi_step, 0.2 * phi_step,
                      -0.0])),
        "rounding boundaries": (
            np.repeat(np.abs(v_edge), len(phi_edge)),
            np.tile(phi_edge, len(v_edge))),
        "random with repeats": (
            rng.choice(rng.uniform(-1.0, 30.0, 40), 500),
            rng.choice(rng.uniform(-0.3, 0.3, 40), 500)),
    }


CASES = [(steps, name) for steps in STEPS
         for name in batches(*steps)]


@pytest.mark.parametrize("steps,name", CASES,
                         ids=[f"{s[0]}-{n}" for s, n in CASES])
def test_matches_the_float_pair_oracle(steps, name):
    v, phi = batches(*steps)[name]
    keys, inverse = _quantized_keys(v, phi, *steps)
    expected_keys, expected_inverse = oracle_keys(v, phi, *steps)
    assert keys == expected_keys
    assert inverse.tolist() == expected_inverse.tolist()
    assert len(set(map(bits, keys))) == len(keys)
    for i, (a, b) in enumerate(zip(v.tolist(), phi.tolist())):
        assert bits(keys[inverse[i]]) == bits(scalar_key(a, b, *steps))


def test_zero_codes_are_positive_zero():
    """The oracle keeps whichever signed zero its sort meets first; the
    codes give ``+0.0``, which is what the scalar lookups use."""
    v, phi = np.array([-1.0, 2.0]), np.array([-1e-5, -0.0])
    keys, _ = _quantized_keys(v, phi, 0.05, 5e-4)
    assert list(map(bits, keys)) == [bits((0.0, 0.0)),
                                     bits(scalar_key(2.0, 0.0, 0.05, 5e-4))]


def test_stop_steps_are_the_stop_table_quantization():
    v, phi = batches(0.05, 5e-4)["random with repeats"]
    keys, inverse = _quantized_keys(v, phi, 0.05, 5e-4)
    for i, (a, b) in enumerate(zip(v.tolist(), phi.tolist())):
        assert bits(keys[inverse[i]]) == bits(_quantize(a, b))
