"""Planar curve geometry for interactions supported on asymptotically
straight curves.

A curve is stored by its bending data rather than by a point table: finitely
many constant-curvature segments (signed curvature k on [a, b]) and finitely
many corner vertices (signed exterior angle at arc-length position s).
Outside the smallest interval containing all of them the curve is straight.

The scaled family multiplies all bending by beta; a CurveSpec on its own is
read as beta = 1.  Every query reads one piece table, built once per
ScaledCurve with beta applied there and nowhere else.  Its edges are the
segment ends and vertex positions plus s = 0.  Region r covers
edges[r-1] < s <= edges[r], so the first region is the left tail and the
last the right tail, and on it the tangent angle is linear,

    psi(s) = psi_r + c_r (s - start_r),

left-continuous: a vertex at p turns the tangent for s > p.  psi is measured
from the tangent just left of s = 0.  The table keeps each edge's turn, and
for each region its start, psi_r, c_r, the point gamma(start_r) and the
integrals of the bending from the left tail, psi - psi_0, and of its square
from the first edge up to start_r.  Points follow in closed form,

    gamma(s) = ( int_0^s cos psi(u) du, int_0^s sin psi(u) du ),

piece by piece as straight segments and circular arcs of radius 1/c_r, so
gamma(0) is the origin and beta = 0 reproduces the straight line exactly.
breaks() gives the edges where the piece changes, which is what the
assembly in bs_core splits its grid at, and mirror_symmetric() whether
s -> -s is a symmetry of the curve, which lets the solver fold its matrix.

Admissibility of a curve means its chords do not collapse: there is c in
(0, 1] with |gamma(s) - gamma(s')| >= c |s - s'| for all pairs.  validate()
estimates that constant by dense pair sampling plus golden-section refinement
and checks it against a floor; the estimate is a numerical one, not a proof.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "CurveFormatError",
    "CurvatureSegment",
    "CurveSpec",
    "ScaledCurve",
    "ValidationReport",
    "Vertex",
    "bending",
    "bending_bracket",
    "breaks",
    "broken_line",
    "curve_digest",
    "curve_from_json",
    "curve_to_dict",
    "distance",
    "mirror_symmetric",
    "point",
    "shift",
    "tail_frame_height",
    "tangent_angle",
    "to_wiggle_frame",
    "total_bending",
    "validate",
    "with_wiggle",
]

# below this the arc radius exceeds ~1e14 and the segment is numerically straight
_STRAIGHT_EPS = 1e-14

# validate(): uniform samples over the support plus tails, and the rounds of
# coordinate-wise golden-section polish given to each of the worst pairs
_N_INNER = 240
_REFINE_ROUNDS = 3


class CurveFormatError(ValueError):
    """Raised when curve JSON does not match the documented schema."""


@dataclass(frozen=True)
class Vertex:
    """Corner at arc length s turning the tangent by the signed angle."""

    s: float
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "angle", float(self.angle))
        if not (math.isfinite(self.s) and math.isfinite(self.angle)):
            raise ValueError("vertex fields must be finite")
        if not 0.0 < abs(self.angle) < math.pi:
            raise ValueError(f"vertex angle must have 0 < |angle| < pi, got {self.angle}")


@dataclass(frozen=True)
class CurvatureSegment:
    """Constant signed curvature k on the arc-length interval [a, b]."""

    a: float
    b: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "k", float(self.k))
        if not all(map(math.isfinite, (self.a, self.b, self.k))):
            raise ValueError("segment fields must be finite")
        if not self.a < self.b:
            raise ValueError(f"segment needs a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class CurveSpec:
    """Bending data of an asymptotically straight curve (unscaled profile).

    segments: constant-curvature intervals, disjoint up to shared endpoints.
    vertices: corners with signed angles, strictly increasing positions.
    The support is [min, max] over all endpoints and vertex positions; a curve
    with no bending data is the straight line with support {0}.  Queries on
    a CurveSpec read it as the beta = 1 member of its scaled family.
    """

    segments: tuple = ()
    vertices: tuple = ()

    def __post_init__(self):
        segs = tuple(sorted((s if isinstance(s, CurvatureSegment) else CurvatureSegment(*s)
                             for s in self.segments), key=lambda t: t.a))
        verts = tuple(sorted((v if isinstance(v, Vertex) else Vertex(*v)
                              for v in self.vertices), key=lambda t: t.s))
        for s0, s1 in zip(segs, segs[1:]):
            if s0.b > s1.a:
                raise ValueError(f"segments overlap: [{s0.a}, {s0.b}] and [{s1.a}, {s1.b}]")
        for v0, v1 in zip(verts, verts[1:]):
            if v0.s == v1.s:
                raise ValueError(f"duplicate vertex position {v0.s}")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "vertices", verts)

    @property
    def support(self):
        pos = [v.s for v in self.vertices] + [x for s in self.segments for x in (s.a, s.b)]
        if not pos:
            return (0.0, 0.0)
        return (min(pos), max(pos))

    @cached_property
    def _unit(self):
        return ScaledCurve(self, 1.0)


@dataclass(frozen=True)
class ScaledCurve:
    """Curve from the scaled family: tangent profile beta * theta(s).

    Any real beta with |beta| * (largest combined turn) < pi is accepted;
    beta = 0 is the straight line.
    """

    base: CurveSpec
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        for v in self.base.vertices:
            if abs(self.beta * v.angle) >= math.pi:
                raise ValueError(
                    f"scaled vertex angle |{self.beta} * {v.angle}| >= pi is not a corner")

    @cached_property
    def _pieces(self):
        return _PieceTable(self.base, self.beta)


def _arc(origin, psi0, c, ds):
    """Point reached from origin after arc length ds along a piece that
    leaves it with tangent angle psi0 and curvature c: a straight segment
    where |c| < _STRAIGHT_EPS, a circular arc otherwise.  Vectorized."""
    cos0, sin0 = np.cos(psi0), np.sin(psi0)
    step = np.stack((ds * cos0, ds * sin0), axis=-1)
    bent = np.abs(c) >= _STRAIGHT_EPS
    if bent.any():
        c, cos0, sin0 = c[bent], cos0[bent], sin0[bent]
        a1 = psi0[bent] + c * ds[bent]
        step[bent] = np.stack(((np.sin(a1) - sin0) / c, (cos0 - np.cos(a1)) / c), axis=-1)
    return origin + step


def _moments(psi0, c, ds):
    """Integrals of psi and psi^2 over [x, x + ds] for psi = psi0 + c (u - x)."""
    return (psi0 * ds + 0.5 * c * ds * ds,
            psi0 * psi0 * ds + psi0 * c * ds * ds + c * c * ds**3 / 3.0)


class _PieceTable:
    """The piece table of one scaled curve (see the module docstring).

    Per edge: edges, turn.  Per region r (m + 1 of them for m edges): start,
    psi, curv, origin (the point at start), int1 and int2 (the integrals of
    phi and phi^2 from edges[0] to start, phi = psi - psi[0] the bending
    from the left tail).
    """

    def __init__(self, base, beta):
        edges = np.unique([0.0] + [v.s for v in base.vertices]
                          + [x for seg in base.segments for x in (seg.a, seg.b)])
        m = edges.size
        turn = np.zeros(m)
        for v in base.vertices:
            turn[np.searchsorted(edges, v.s)] = v.angle
        curv = np.zeros(m + 1)
        for seg in base.segments:
            curv[np.searchsorted(edges, seg.a) + 1:np.searchsorted(edges, seg.b) + 1] = seg.k
        start = edges[np.maximum(np.arange(m + 1) - 1, 0)]

        # unscaled tangent angle at each region's start, zero on the left
        # tail; th0 is its left limit at s = 0
        theta = np.zeros(m + 1)
        run = 0.0
        for r in range(1, m + 1):
            run += turn[r - 1]
            theta[r] = run
            if r < m:
                run += curv[r] * (edges[r] - edges[r - 1])
        i0 = int(np.searchsorted(edges, 0.0))
        th0 = theta[i0] + curv[i0] * (edges[i0] - start[i0])

        self.edges = edges
        self.turn = beta * turn
        self.start = start
        self.psi = beta * (theta - th0)
        self.curv = beta * curv

        # start points, marching outward from gamma(0) = 0 one interior
        # region at a time (cumsum adds in that order); region r ends at
        # edges[r]
        step = _arc(0.0, self.psi[1:m], self.curv[1:m], np.diff(edges))
        origin = np.zeros((m + 1, 2))
        origin[i0 + 2:] = np.cumsum(step[i0:], axis=0)
        origin[1:i0 + 1] = -np.cumsum(step[:i0][::-1], axis=0)[::-1]
        origin[0] = origin[1]
        self.origin = origin

        # phi, not psi: it vanishes on the left tail, so the variance that
        # bending_bracket forms over long tail stretches cancels no large
        # moments (with psi the zigzag bracket lost about 1e-14 relative)
        int1, int2 = _moments(self.psi[:-1] - self.psi[0], self.curv[:-1], np.diff(start))
        self.int1 = np.concatenate(([0.0], np.cumsum(int1)))
        self.int2 = np.concatenate(([0.0], np.cumsum(int2)))


def _as_scaled(curve):
    return curve if isinstance(curve, ScaledCurve) else curve._unit


def _region(curve, s):
    """Piece table of the curve and the region index of each s."""
    table = _as_scaled(curve)._pieces
    return table, np.searchsorted(table.edges, s, side="left")


def breaks(curve):
    """Sorted arc lengths where the curve changes piece: a vertex turns the
    tangent or the curvature changes.

    Read from the stored turns and curvatures, with no angle compared: the
    edge the piece table adds at s = 0 is no break, and beta = 0 has none.
    """
    table = _as_scaled(curve)._pieces
    return table.edges[(table.turn != 0.0) | (table.curv[1:] != table.curv[:-1])]


def mirror_symmetric(curve):
    """True when s -> -s maps the curve onto itself up to a rigid motion, so
    that every chord |gamma(s) - gamma(s')| equals |gamma(-s) - gamma(-s')|.

    Read from the piece table: the edges must be symmetric about 0, and the
    turns and curvatures either both even in s (a reflection, as for a corner
    at 0) or both odd in s (a point reflection, as for a zigzag about 0).
    Compared exactly, with no tolerance; the straight line is symmetric.
    """
    table = _as_scaled(curve)._pieces
    if not np.array_equal(table.edges, -table.edges[::-1]):
        return False
    return any(np.array_equal(table.turn, sign * table.turn[::-1])
               and np.array_equal(table.curv, sign * table.curv[::-1])
               for sign in (1.0, -1.0))


# ---------------------------------------------------------------------------
# profile queries


def tangent_angle(curve, s):
    """Tangent angle relative to the tangent just left of arc length 0."""
    s = np.asarray(s, dtype=float)
    table, r = _region(curve, s)
    out = table.psi[r] + table.curv[r] * (s - table.start[r])
    return float(out) if out.ndim == 0 else out


def bending(curve, s, s2):
    """Integrated bending from arc length s to s2 (signed, antisymmetric).

    Counts vertex turns strictly between the endpoints plus the one sitting
    exactly at the lower endpoint, and integrates curvature over the interval.
    """
    return float(tangent_angle(curve, s2) - tangent_angle(curve, s))


def total_bending(curve):
    """Tangent turn between the two straight tails."""
    psi = _as_scaled(curve)._pieces.psi
    return float(psi[-1] - psi[0])


def bending_bracket(curve, s, s2):
    """Interval bending bracket, vectorized:

        (1/|s - s2|) (int_{s2}^{s} phi du)^2 - int_{s2}^{s} phi^2 du,

    phi(u) the bending between u and either endpoint.  Equal to minus the
    interval length times the variance of the tangent angle over the interval,
    so the reference endpoint drops out; symmetric and always <= 0.  Returns
    0 on the diagonal.
    """
    def integrals(x):
        table, r = _region(curve, x)
        i1, i2 = _moments(table.psi[r] - table.psi[0], table.curv[r], x - table.start[r])
        return table.int1[r] + i1, table.int2[r] + i2

    s = np.asarray(s, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    d = s - s2
    c1a, c2a = integrals(s)
    c1b, c2b = integrals(s2)
    safe = np.where(d == 0.0, 1.0, d)
    m1 = (c1a - c1b) / safe
    m2 = (c2a - c2b) / safe
    var = np.maximum(m2 - m1 * m1, 0.0)
    out = -np.abs(d) * var
    return np.where(d == 0.0, 0.0, out)


# ---------------------------------------------------------------------------
# point evaluation


def point(curve, s):
    """Point gamma(s) of the scaled curve; gamma(0) = origin, left tangent x-hat.

    Scalars give a (2,) array, arrays give shape (..., 2).  Closed form:
    straight pieces and circular arcs, no quadrature.
    """
    s = np.asarray(s, dtype=float)
    table, r = _region(curve, s)
    return _arc(table.origin[r], table.psi[r], table.curv[r], s - table.start[r])


def distance(curve, s, s2):
    """Chord length |gamma(s) - gamma(s2)| on the scaled curve; vectorized."""
    p = point(curve, s)
    q = point(curve, s2)
    d = p - q
    out = np.sqrt(np.sum(d * d, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# admissibility estimate


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the chord-constant estimate; ok means estimate > floor."""

    ok: bool
    chord_constant: float
    floor: float
    worst_pair: tuple
    tail_ratio: float
    n_samples: int
    messages: tuple = ()


def _chord_ratio(sc, s, s2):
    """|gamma(s) - gamma(s2)| / |s - s2| elementwise, 1 where |s - s2| < 1e-9."""
    d = np.abs(s - s2)
    near = d < 1e-9
    return np.where(near, 1.0, distance(sc, s, s2) / np.where(near, 1.0, d))


def _golden(f, a, b, iters=40):
    """Minimisers of the vectorised f on the brackets [a, b] by golden-section
    search, all stepped in lockstep: each element takes exactly the steps a
    scalar search on its own bracket would."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 <= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        x_new = np.where(left, b - inv * (b - a), a + inv * (b - a))
        f_new = f(x_new)
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    return np.where(f1 <= f2, x1, x2)


def validate(curve, beta=1.0, floor=1e-3):
    """Estimate the chord constant inf |gamma(s)-gamma(s')| / |s-s'| at the
    given scaling and compare with the floor.

    Pairs are sampled densely over the support plus straight tails, with a
    geometric ladder far out to catch converging tails, then the worst pairs
    are polished by coordinate-wise golden-section search.  The asymptotic
    tail-tail ratio |cos(Phi/2)| (Phi the scaled total bending) is included
    as a candidate.  An estimate, not a certificate.
    """
    sc = _as_scaled(curve)
    if beta != 1.0:
        sc = ScaledCurve(sc.base, sc.beta * beta)
    lo, hi = sc.base.support
    span = max(hi - lo, 1.0)

    inner = np.linspace(lo - 2.0 * span, hi + 2.0 * span, _N_INNER)
    ladder = span * np.geomspace(4.0, 1000.0, 12)
    samples = np.unique(np.concatenate([inner, lo - ladder, hi + ladder]))

    pts = point(sc, samples)
    diff = pts[:, None, :] - pts[None, :, :]
    rho = np.sqrt(np.sum(diff * diff, axis=-1))
    ds = np.abs(samples[:, None] - samples[None, :])
    ratio = np.where(ds > 1e-9, rho / np.where(ds > 1e-9, ds, 1.0), 1.0)

    # the six worst pairs, i < j, polished together
    i, j = np.unravel_index(np.argsort(ratio, axis=None), ratio.shape)
    upper = np.flatnonzero(i < j)[:6]
    si, sj = samples[i[upper]], samples[j[upper]]
    gap = np.maximum(np.abs(si) * 0.5, span / 4.0)
    for _ in range(_REFINE_ROUNDS):
        si = _golden(lambda x: _chord_ratio(sc, x, sj), si - gap, si + gap)
        sj = _golden(lambda x: _chord_ratio(sc, si, x), sj - gap, sj + gap)
    vals = _chord_ratio(sc, si, sj)
    k = int(np.argmin(vals))
    best = float(vals[k])
    best_pair = (float(si[k]), float(sj[k]))

    phi = total_bending(sc)
    tail = abs(math.cos(0.5 * phi))
    msgs = []
    if tail < best:
        best = tail
        msgs.append("infimum approached along the two tails")
    ok = bool(best > floor)
    if not ok:
        msgs.append(f"chord constant estimate {best:.3e} at or below floor {floor:.1e}")
    return ValidationReport(ok=ok, chord_constant=float(best), floor=float(floor),
                            worst_pair=best_pair, tail_ratio=float(tail),
                            n_samples=int(samples.size), messages=tuple(msgs))


# ---------------------------------------------------------------------------
# construction helpers


def broken_line(angle=1.0):
    """Single corner at the origin; the scaled family turns by beta*angle."""
    return CurveSpec(vertices=(Vertex(0.0, angle),))


def shift(curve, ds):
    """Translate all bending data along the parameter by ds."""
    segs = tuple(CurvatureSegment(s.a + ds, s.b + ds, s.k) for s in curve.segments)
    verts = tuple(Vertex(v.s + ds, v.angle) for v in curve.vertices)
    return CurveSpec(segments=segs, vertices=verts)


def to_wiggle_frame(curve):
    """Shift so the deformation ends exactly at arc length 0.

    Afterwards the curve is straight on s >= 0 and the pivot of the wiggle
    construction sits where straightness begins.
    """
    _, hi = curve.support
    return shift(curve, -hi)


def with_wiggle(curve, phi):
    """Append a corner of angle phi at the pivot s = 0.

    Requires the deformation to lie in s <= 0 (see to_wiggle_frame); the
    straight tail s >= 0 rotates rigidly by phi about gamma(0).  phi = 0
    returns the curve unchanged.  If a vertex already sits at 0 the angles
    compose.
    """
    if phi == 0.0:
        return curve
    _, hi = curve.support
    if hi > 0.0:
        raise ValueError("wiggle pivot must lie on the straight right tail; "
                         "use to_wiggle_frame first")
    angle = float(phi) + sum(v.angle for v in curve.vertices if v.s == 0.0)
    verts = [v for v in curve.vertices if v.s != 0.0] + [Vertex(0.0, angle)]
    return CurveSpec(segments=curve.segments, vertices=tuple(verts))


def tail_frame_height(curve, s):
    """Height above the straight right tail, in the frame where that tail is
    the positive x-axis through the origin.  Vectorized; exactly 0 for s >= 0
    when the curve is in the wiggle frame."""
    tail_angle = _as_scaled(curve)._pieces.psi[-1]
    pts = point(curve, s)
    y = -math.sin(tail_angle) * pts[..., 0] + math.cos(tail_angle) * pts[..., 1]
    return float(y) if np.ndim(s) == 0 else y


# ---------------------------------------------------------------------------
# JSON schema


def curve_from_json(source):
    """Parse the documented curve format:

        {"segments": [{"a": ..., "b": ..., "k": ...}, ...],
         "vertices": [{"s": ..., "angle": ...}, ...]}

    Accepts a JSON string/bytes or an already-parsed dict.  Both keys are
    required (empty lists allowed); unknown keys anywhere are rejected.
    """
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise CurveFormatError(f"not valid JSON: {exc}") from exc
    elif isinstance(source, dict):
        data = source
    else:
        raise CurveFormatError(f"unsupported source type {type(source).__name__}")

    if not isinstance(data, dict):
        raise CurveFormatError("top level must be an object")
    extra = set(data) - {"segments", "vertices"}
    if extra:
        raise CurveFormatError(f"unknown top-level keys: {sorted(extra)}")
    missing = {"segments", "vertices"} - set(data)
    if missing:
        raise CurveFormatError(f"missing required keys: {sorted(missing)}")

    def number(obj, key, where):
        if key not in obj:
            raise CurveFormatError(f"{where} missing key '{key}'")
        val = obj[key]
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise CurveFormatError(f"{where}['{key}'] must be a number")
        if not math.isfinite(val):
            raise CurveFormatError(f"{where}['{key}'] must be finite")
        return float(val)

    def items(key, cls, fields):
        if not isinstance(data[key], list):
            raise CurveFormatError(f"'{key}' must be a list")
        out = []
        for i, raw in enumerate(data[key]):
            where = f"{key}[{i}]"
            if not isinstance(raw, dict):
                raise CurveFormatError(f"{where} must be an object")
            extra = set(raw) - set(fields)
            if extra:
                raise CurveFormatError(f"{where} has unknown keys: {sorted(extra)}")
            try:
                out.append(cls(*(number(raw, f, where) for f in fields)))
            except ValueError as exc:
                raise CurveFormatError(f"{where}: {exc}") from exc
        return tuple(out)

    segments = items("segments", CurvatureSegment, ("a", "b", "k"))
    vertices = items("vertices", Vertex, ("s", "angle"))
    try:
        return CurveSpec(segments=segments, vertices=vertices)
    except ValueError as exc:
        raise CurveFormatError(str(exc)) from exc


def curve_to_dict(curve):
    """Canonical dict form, inverse of curve_from_json."""
    return {
        "segments": [{"a": s.a, "b": s.b, "k": s.k} for s in curve.segments],
        "vertices": [{"s": v.s, "angle": v.angle} for v in curve.vertices],
    }


def curve_digest(curve, beta=None):
    """Stable hex digest of the bending data (and beta when given)."""
    if isinstance(curve, ScaledCurve):
        beta = curve.beta if beta is None else beta
        curve = curve.base
    payload = curve_to_dict(curve)
    if beta is not None:
        payload["beta"] = float(beta)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
