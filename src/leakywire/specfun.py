"""Modified Bessel functions K0 and K1 for positive real arguments.

These two functions carry the whole package: K0 is the free resolvent kernel
in two dimensions and K1 = -K0' enters every derivative formula.  Values come
from scipy.special.k0 and k1; this module adds the domain check (arguments
must be positive and finite) and the rule that a scalar input returns a
float.  Against the 25-digit fixture in tests/fixtures/bessel_reference.json
(158 points on [1e-8, 700]) the worst relative error is 3.0e-14 for K0 and
3.1e-14 for K1.  Beyond x ~ 746 both underflow quietly to exactly 0.0, the
correctly rounded value there.
"""

import numpy as np
import scipy.special


def _evaluate(fn, x):
    arr = np.asarray(x, dtype=float)
    # min/max reduce without temporaries and propagate NaN into the test
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        raise ValueError("argument must be positive and finite")
    out = fn(arr)
    return float(out) if arr.ndim == 0 else out


def bessel_k0(x):
    """K0(x) for x > 0.  Accepts scalars or arrays; scalar in, float out."""
    return _evaluate(scipy.special.k0, x)


def bessel_k1(x):
    """K1(x) for x > 0.  Same domain and shape rules as bessel_k0."""
    return _evaluate(scipy.special.k1, x)


def k0_prime(x):
    """Derivative K0'(x) = -K1(x); strictly negative on the domain."""
    return -bessel_k1(x)
