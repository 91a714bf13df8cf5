"""Generate the high-precision reference fixture for the modified Bessel functions.

Run from the repository root:

    python tools/gen_bessel_fixture.py

Rewrites tests/fixtures/bessel_reference.json with K0 and K1 at 25 significant
digits on pinned anchor points plus log-spaced coverage of [1e-8, 700].
Requires mpmath (the `tables` extra).
"""

import json
import os

import mpmath as mp

mp.mp.dps = 30


def fixtures():
    pts = []
    # pinned anchor points plus log-spaced coverage of the contract range
    anchors = ["1e-8", "1e-6", "1e-4", "0.01", "0.1", "0.5", "1", "1.4142135623730951",
               "2", "3", "5", "8", "10", "20", "50", "100", "300", "500", "700"]
    xs = [mp.mpf(a) for a in anchors]
    lo, hi, n = mp.log(mp.mpf("1e-8")), mp.log(mp.mpf(700)), 140
    for i in range(n + 1):
        xs.append(mp.exp(lo + (hi - lo) * i / n))
    seen = set()
    for x in sorted(xs):
        key = mp.nstr(x, 17)
        if key in seen:
            continue
        seen.add(key)
        pts.append({
            "x": key,
            "k0": mp.nstr(mp.besselk(0, x), 25),
            "k1": mp.nstr(mp.besselk(1, x), 25),
        })
    return pts


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)

    path = os.path.join(root, "tests", "fixtures", "bessel_reference.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"dps": 25, "points": fixtures()}, fh, indent=1)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
