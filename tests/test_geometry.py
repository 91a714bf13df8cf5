"""Geometry of piecewise-polygonal/arc curves and their scaled families.

Positions and bending integrals have closed forms here; the oracle for both
is direct numerical quadrature of the tangent angle.
"""

import json
import math

import numpy as np
import pytest
import scipy.integrate

from leakywire import geometry as geo


# a curvature segment and two corners, s = 0 on a straight stretch
MIXED = geo.CurveSpec(segments=(geo.CurvatureSegment(-2.0, -0.5, 0.3),),
                     vertices=(geo.Vertex(0.5, -0.4), geo.Vertex(1.5, 0.2)))


def quad_point(sc, s):
    """Position by quadrature of (cos theta, sin theta); independent oracle."""
    bps = sorted({float(b) for b in breakpoints(sc)} | {0.0, float(s)})
    xs = scipy.integrate.quad(lambda t: math.cos(geo.tangent_angle(sc, t)),
                              0.0, s, points=bps, limit=200,
                              epsabs=1e-13, epsrel=1e-13)[0]
    ys = scipy.integrate.quad(lambda t: math.sin(geo.tangent_angle(sc, t)),
                              0.0, s, points=bps, limit=200,
                              epsabs=1e-13, epsrel=1e-13)[0]
    return np.array([xs, ys])


def breakpoints(sc):
    base = sc.base if isinstance(sc, geo.ScaledCurve) else sc
    pts = [v.s for v in base.vertices]
    for seg in base.segments:
        pts.extend([seg.a, seg.b])
    return pts


class TestPoint:
    def test_broken_line_right_angle(self):
        sc = geo.ScaledCurve(geo.broken_line(1.0), math.pi / 2)
        assert geo.point(sc, -3.0) == pytest.approx([-3.0, 0.0], abs=1e-14)
        assert geo.point(sc, 2.0) == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_arc_quarter_circle(self):
        arc = geo.CurveSpec(segments=(geo.CurvatureSegment(0.0, math.pi, 0.5),))
        sc = geo.ScaledCurve(arc, 1.0)
        assert geo.point(sc, math.pi) == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_against_quadrature(self, rng, zigzag):
        for curve in (zigzag, MIXED):
            sc = geo.ScaledCurve(curve, 0.8)
            for s in rng.uniform(-6.0, 6.0, size=8):
                assert geo.point(sc, float(s)) == pytest.approx(
                    quad_point(sc, float(s)), abs=1e-10)

    def test_vectorized_matches_scalar(self, zigzag):
        sc = geo.ScaledCurve(zigzag, 1.0)
        ss = np.linspace(-4.0, 4.0, 17)
        pts = geo.point(sc, ss)
        assert pts.shape == (17, 2)
        for i, s in enumerate(ss):
            assert pts[i] == pytest.approx(geo.point(sc, float(s)), abs=0)

    def test_beta_zero_is_straight(self, zigzag):
        sc = geo.ScaledCurve(zigzag, 0.0)
        ss = np.linspace(-5.0, 5.0, 11)
        pts = geo.point(sc, ss)
        assert pts[:, 0] == pytest.approx(ss, abs=1e-14)
        assert np.all(pts[:, 1] == 0.0)


class TestBending:
    def test_broken_line(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        assert geo.bending(sc, -1.0, 1.0) == 1.0
        assert geo.bending(sc, 0.5, 3.0) == 0.0
        assert geo.total_bending(sc) == 1.0

    def test_scaling_linear(self, zigzag):
        half = geo.ScaledCurve(zigzag, 0.5)
        full = geo.ScaledCurve(zigzag, 1.0)
        assert geo.bending(half, -2.0, 0.0) == pytest.approx(
            0.5 * geo.bending(full, -2.0, 0.0))

    def test_bracket_closed_form_broken(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        # angle profile is 0 then 1 over [-1, 1]: mean 1/2, variance 1/4,
        # times minus the interval length gives -1/2
        val = geo.bending_bracket(sc, np.array([-1.0]), np.array([1.0]))
        assert val[0] == pytest.approx(-0.5, rel=1e-13)

    def test_bracket_against_quadrature(self, rng, zigzag):
        mixed = geo.CurveSpec(
            segments=(geo.CurvatureSegment(-1.5, 0.0, -0.4),),
            vertices=(geo.Vertex(1.0, 0.7),))
        for curve in (zigzag, mixed):
            sc = geo.ScaledCurve(curve, 1.0)
            bps = breakpoints(sc)
            for _ in range(6):
                a, b = np.sort(rng.uniform(-4.0, 4.0, size=2))
                if b - a < 1e-3:
                    continue
                pts = sorted({p for p in bps + [a, b] if a <= p <= b})
                m1 = scipy.integrate.quad(
                    lambda t: geo.tangent_angle(sc, t), a, b,
                    points=pts, limit=200, epsabs=1e-13)[0]
                m2 = scipy.integrate.quad(
                    lambda t: geo.tangent_angle(sc, t) ** 2, a, b,
                    points=pts, limit=200, epsabs=1e-13)[0]
                expect = m1 * m1 / (b - a) - m2
                got = geo.bending_bracket(sc, np.array([a]), np.array([b]))
                assert got[0] == pytest.approx(expect, abs=1e-10)

    def test_bracket_symmetric_and_nonpositive(self, rng, zigzag):
        sc = geo.ScaledCurve(zigzag, 1.0)
        s = rng.uniform(-5.0, 5.0, size=40)
        s2 = rng.uniform(-5.0, 5.0, size=40)
        fwd = geo.bending_bracket(sc, s, s2)
        bwd = geo.bending_bracket(sc, s2, s)
        assert fwd == pytest.approx(bwd, abs=1e-12)
        assert np.all(fwd <= 1e-12)

    def test_bracket_beta_scaling(self, zigzag):
        # the bracket is quadratic in the tangent angle, so quartic-free:
        # scaling beta multiplies it by beta^2 exactly
        s = np.array([-2.0, -1.0, 0.3])
        s2 = np.array([1.0, 2.5, 3.0])
        b1 = geo.bending_bracket(geo.ScaledCurve(zigzag, 1.0), s, s2)
        bh = geo.bending_bracket(geo.ScaledCurve(zigzag, 0.5), s, s2)
        assert bh == pytest.approx(0.25 * b1, rel=1e-12)


class TestPieceTable:
    @pytest.mark.parametrize("curve, beta, expect", [
        (geo.broken_line(1.0), 1.0, [0.0]),
        (geo.broken_line(1.0), 0.0, []),
        (geo.CurveSpec(), 1.0, []),
        (geo.CurveSpec(segments=((0.0, math.pi, 0.5),)), 1.0, [0.0, math.pi]),
        # equal curvature on both sides of 0.7: one arc, no break there
        (geo.CurveSpec(segments=((-1.3, 0.7, 0.3), (0.7, 2.1, 0.3))), 1.0,
         [-1.3, 2.1]),
        # a corner where the arc ends is one break, not two
        (geo.CurveSpec(segments=((0.0, 1.0, 0.5),), vertices=((1.0, 0.3),)), 1.0,
         [0.0, 1.0]),
    ], ids=["corner", "corner_beta0", "straight", "arc", "abutting_equal_k",
            "vertex_on_segment_end"])
    def test_breaks(self, curve, beta, expect):
        got = geo.breaks(geo.ScaledCurve(curve, beta))
        assert got.tolist() == expect

    @pytest.mark.parametrize("curve, beta, expect", [
        (geo.broken_line(1.0), 1.0, True),
        (geo.broken_line(1.0), 0.0, True),
        (geo.CurveSpec(), 0.0, True),
        # point reflection: a zigzag about 0, and an S-shaped pair of arcs
        (geo.CurveSpec(vertices=((-1.0, 0.8), (1.0, -0.8))), 0.7, True),
        (geo.CurveSpec(segments=((-2.0, 0.0, 0.4), (0.0, 2.0, -0.4))), 1.0, True),
        # reflection: equal corners, an arc centred on 0, mixed pieces
        (geo.CurveSpec(vertices=((-20.0, 1.2), (20.0, 1.2))), 1.0, True),
        (geo.CurveSpec(segments=((-1.5, 1.5, 0.3),)), 1.0, True),
        (geo.CurveSpec(segments=((-2.0, -1.0, 0.2), (1.0, 2.0, 0.2)),
                       vertices=((-0.5, 0.3), (0.0, 0.6), (0.5, 0.3))), 1.0, True),
        (geo.CurveSpec(vertices=((-20.0, 1.2), (20.0, 1.1))), 1.0, False),
        (geo.shift(geo.broken_line(1.0), 0.3), 1.0, False),
        (geo.to_wiggle_frame(geo.CurveSpec(vertices=((-1.0, 0.8), (1.0, 0.8)))),
         1.0, False),
        # even turns with odd curvature: neither symmetry
        (geo.CurveSpec(segments=((-2.0, 0.0, 0.4), (0.0, 2.0, -0.4)),
                       vertices=((-1.0, 0.3), (1.0, 0.3))), 1.0, False),
        (geo.CurveSpec(vertices=((0.0, 0.5),), segments=((-1.0, 0.0, 0.2),)),
         1.0, False),
    ], ids=["corner", "corner_beta0", "straight", "zigzag", "s_arcs", "twin",
            "centred_arc", "mixed", "unequal", "off_centre", "wiggle_frame",
            "even_turn_odd_curvature", "one_sided_arc"])
    def test_mirror_symmetric(self, curve, beta, expect):
        sc = geo.ScaledCurve(curve, beta)
        assert geo.mirror_symmetric(sc) is expect
        # oracle: chords are invariant under s -> -s exactly when symmetric
        s = np.linspace(-25.0, 25.0, 101)
        pts, mirrored = geo.point(sc, s), geo.point(sc, -s)
        chords = np.hypot(*(pts[:, None, :] - pts[None, :, :]).T)
        mirrored_chords = np.hypot(*(mirrored[:, None, :] - mirrored[None, :, :]).T)
        assert np.allclose(chords, mirrored_chords, rtol=0.0, atol=1e-12) is expect

    @pytest.mark.parametrize("query", [
        lambda c, s: geo.point(c, s),
        lambda c, s: geo.tangent_angle(c, s),
        lambda c, s: [geo.bending(c, a, b) for a, b in zip(s, s[::-1])],
        lambda c, s: geo.total_bending(c),
        lambda c, s: geo.bending_bracket(c, s, s[::-1]),
        lambda c, s: geo.tail_frame_height(c, s),
    ], ids=["point", "tangent_angle", "bending", "total_bending",
            "bending_bracket", "tail_frame_height"])
    def test_unscaled_is_beta_one(self, query):
        # a CurveSpec answers every query as its beta = 1 scaled curve
        s = np.linspace(-4.0, 4.0, 33)
        assert np.array_equal(query(MIXED, s), query(geo.ScaledCurve(MIXED, 1.0), s))


class TestDistance:
    def test_straight_segments_exact(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        assert geo.distance(sc, -4.0, -1.0) == pytest.approx(3.0, abs=1e-14)
        assert geo.distance(sc, 1.0, 5.0) == pytest.approx(4.0, abs=1e-12)

    def test_straddling_chord(self, broken):
        sc = geo.ScaledCurve(broken, 1.0)
        expect = math.sqrt(2.0 + 2.0 * math.cos(1.0))
        assert geo.distance(sc, -1.0, 1.0) == pytest.approx(expect, rel=1e-13)

    def test_chord_never_exceeds_arc(self, rng, zigzag):
        sc = geo.ScaledCurve(zigzag, 1.0)
        for _ in range(30):
            a, b = rng.uniform(-6.0, 6.0, size=2)
            assert geo.distance(sc, a, b) <= abs(b - a) + 1e-12


class TestValidate:
    def test_broken_line_constant(self, broken):
        rep = geo.validate(broken, beta=math.pi / 2)
        assert rep.ok
        assert rep.chord_constant == pytest.approx(math.cos(math.pi / 4), rel=1e-6)

    def test_straight_line(self):
        rep = geo.validate(geo.CurveSpec())
        assert rep.ok
        assert rep.chord_constant == pytest.approx(1.0, rel=1e-9)

    def test_hairpin_fails(self):
        hairpin = geo.CurveSpec(vertices=(geo.Vertex(0.0, 3.1),))
        rep = geo.validate(hairpin, floor=0.05)
        assert not rep.ok
        assert rep.chord_constant == pytest.approx(math.cos(1.55), rel=1e-4)
        assert rep.messages

    def test_angle_cap(self, broken):
        with pytest.raises(ValueError):
            geo.ScaledCurve(broken, math.pi + 1e-9)


def scalar_validate(curve, beta):
    """validate()'s chord constant and worst pair with the six worst pairs
    polished one at a time by a scalar golden-section search; the reference
    for the lockstep polish."""
    def ratio_at(s, s2):
        d = abs(s - s2)
        return 1.0 if d < 1e-9 else geo.distance(sc, s, s2) / d

    def golden(f, a, b, iters=40):
        inv = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = b - inv * (b - a)
        x2 = a + inv * (b - a)
        f1, f2 = f(x1), f(x2)
        for _ in range(iters):
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - inv * (b - a)
                f1 = f(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + inv * (b - a)
                f2 = f(x2)
        return x1 if f1 <= f2 else x2

    sc = geo.ScaledCurve(curve, beta)
    lo, hi = curve.support
    span = max(hi - lo, 1.0)
    inner = np.linspace(lo - 2.0 * span, hi + 2.0 * span, geo._N_INNER)
    ladder = span * np.geomspace(4.0, 1000.0, 12)
    samples = np.unique(np.concatenate([inner, lo - ladder, hi + ladder]))
    pts = geo.point(sc, samples)
    diff = pts[:, None, :] - pts[None, :, :]
    rho = np.sqrt(np.sum(diff * diff, axis=-1))
    ds = np.abs(samples[:, None] - samples[None, :])
    ratio = np.where(ds > 1e-9, rho / np.where(ds > 1e-9, ds, 1.0), 1.0)

    best, best_pair, seen = math.inf, None, 0
    for idx in np.argsort(ratio, axis=None):
        i, j = np.unravel_index(idx, ratio.shape)
        if i >= j:
            continue
        seen += 1
        if seen > 6:
            break
        si, sj = float(samples[i]), float(samples[j])
        gap = max(abs(si) * 0.5, span / 4.0)
        for _ in range(geo._REFINE_ROUNDS):
            si = golden(lambda x: ratio_at(x, sj), si - gap, si + gap)
            sj = golden(lambda x: ratio_at(si, x), sj - gap, sj + gap)
        val = ratio_at(si, sj)
        if val < best:
            best, best_pair = val, (si, sj)
    return min(best, abs(math.cos(0.5 * geo.total_bending(sc)))), best_pair


# curves beside the conftest fixtures; the 3.1 rad corner is the 1.55 rad
# hairpin of TestValidate
OWN_CURVES = {"hairpin": geo.CurveSpec(vertices=(geo.Vertex(0.0, 3.1),)),
              "straight": geo.CurveSpec(), "mixed": MIXED}


class TestValidateMatchesScalarPolish:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.2])
    @pytest.mark.parametrize("name", ["broken", "zigzag", "twin_corners", "hairpin",
                                      "straight", "mixed"])
    def test_same_report(self, request, name, beta):
        curve = OWN_CURVES[name] if name in OWN_CURVES else request.getfixturevalue(name)
        if name == "hairpin" and beta > 1.0:
            # 1.2 * 3.1 rad is no corner: both refuse the curve
            with pytest.raises(ValueError):
                geo.validate(curve, beta=beta)
            with pytest.raises(ValueError):
                scalar_validate(curve, beta)
            return
        rep = geo.validate(curve, beta=beta)
        chord_constant, worst_pair = scalar_validate(curve, beta)
        assert rep.chord_constant == chord_constant
        assert rep.worst_pair == worst_pair


class TestJsonFormat:
    def test_round_trip(self, zigzag):
        text = json.dumps(geo.curve_to_dict(zigzag))
        back = geo.curve_from_json(text)
        assert back == zigzag

    def test_accepts_mixed(self):
        text = ('{"segments": [{"a": -1.0, "b": 0.0, "k": 0.2}], '
                '"vertices": [{"s": 1.0, "angle": -0.3}]}')
        c = geo.curve_from_json(text)
        assert c.support == (-1.0, 1.0)

    @pytest.mark.parametrize("bad", [
        '[]',
        '{"vertices": [{"s": 0, "angle": 1}]}',
        '{"segments": [], "vertices": [{"s": 0, "angle": 1}], "x": 1}',
        '{"segments": [], "vertices": [{"s": 0}]}',
        '{"segments": [], "vertices": [{"s": 0, "angle": 1, "q": 2}]}',
        '{"segments": [], "vertices": [{"s": true, "angle": 1}]}',
        '{"segments": [], "vertices": [{"s": "0", "angle": 1}]}',
        '{"segments": [{"a": 1.0, "b": 0.0, "k": 0.2}], "vertices": []}',
        '{"segments": [], "vertices": [{"s": 0, "angle": 1e999}]}',
        'not json',
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(geo.CurveFormatError):
            geo.curve_from_json(bad)

    def test_digest_stable_and_beta_aware(self, zigzag):
        d1 = geo.curve_digest(zigzag)
        d2 = geo.curve_digest(zigzag)
        assert d1 == d2 and len(d1) == 16
        assert geo.curve_digest(zigzag, beta=0.5) != d1
        assert geo.curve_digest(geo.ScaledCurve(zigzag, 0.5)) == \
            geo.curve_digest(zigzag, beta=0.5)


class TestWiggle:
    def test_frame_shift(self, zigzag):
        base = geo.to_wiggle_frame(zigzag)
        assert base.support == (-2.0, 0.0)
        # bending pattern preserved under the shift
        sc0 = geo.ScaledCurve(zigzag, 1.0)
        sc1 = geo.ScaledCurve(base, 1.0)
        assert geo.bending(sc1, -2.0, 0.0) == geo.bending(sc0, -1.0, 1.0)

    def test_with_wiggle_composes_at_pivot(self, zigzag):
        base = geo.to_wiggle_frame(zigzag)
        w = geo.with_wiggle(base, 0.3)
        angles = {v.s: v.angle for v in w.vertices}
        assert angles[0.0] == pytest.approx(-math.pi / 4 + 0.3)

    def test_with_wiggle_requires_frame(self, zigzag):
        with pytest.raises(ValueError):
            geo.with_wiggle(zigzag, 0.1)

    def test_wiggle_rotates_tail_rigidly(self, zigzag):
        base = geo.to_wiggle_frame(zigzag)
        phi = 0.2
        w = geo.with_wiggle(base, phi)
        p0 = geo.point(geo.ScaledCurve(base, 1.0), np.array([3.0, 5.0]))
        p1 = geo.point(geo.ScaledCurve(w, 1.0), np.array([3.0, 5.0]))
        pivot = geo.point(geo.ScaledCurve(base, 1.0), 0.0)
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        expect = pivot + (p0 - pivot) @ rot.T
        assert p1 == pytest.approx(expect, abs=1e-12)

    def test_tail_frame_height_zero_on_right(self, zigzag):
        base = geo.to_wiggle_frame(zigzag)
        hs = geo.tail_frame_height(base, np.array([0.0, 1.0, 10.0]))
        assert hs == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)

    def test_tail_frame_height_left(self, zigzag):
        base = geo.to_wiggle_frame(zigzag)
        # one unit back along tangent angle pi/4 from the pivot
        h = geo.tail_frame_height(base, np.array([-1.0]))
        assert h[0] == pytest.approx(-math.sin(math.pi / 4), rel=1e-12)
