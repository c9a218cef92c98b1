"""Concave arc flux functions and their convex-analysis machinery.

A flux function F(rho) = rho * v(rho) is concave, nonnegative on
[0, rho_jam], zero at both ends, and strictly increasing up to the
critical density rho_star where it attains the capacity F_max.  On the
increasing branch it has an inverse  rho = g(u)  (convex, nondecreasing),
whose Legendre conjugate  g*(p) = max_u (p*u - g(u))  drives the
cumulative-curve evolution along an arc.  An arc of length L turns it into
the min-plus kernel  K(s) = L * g*(s/L): the most vehicles that can both
enter and leave the arc within a time span s.  K is zero up to the
free-flow time mu = L * g'(0), then convex and increasing with slopes up
to F_max; the exit curve is the inf-convolution
exit(t) = min_tau { entry(tau) + K(t - tau) }.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, DomainError

_TOL = 1e-9


def kind_params(kinds, kind, params, noun):
    """The parameters of a ``noun`` of ``kind`` in ``kinds[kind]``'s order, its
    defaults filled in; ``kinds`` maps each kind to its parameters and their
    defaults, None marking a required one.  Raises ConfigurationError for an
    unknown kind or a missing or unknown parameter."""
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"unknown {noun} kind {kind!r}")
    spec = kinds[kind]
    for key in params:
        if key not in spec:
            raise ConfigurationError(f"{kind} {noun}: unknown parameter {key!r}")
    for key, default in spec.items():
        if default is None and key not in params:
            raise ConfigurationError(f"{kind} {noun}: missing parameter {key!r}")
    return {key: params.get(key, default) for key, default in spec.items()}


class FluxDescriptor:
    """A concave fundamental diagram with inverse and conjugate machinery.

    Supported kinds:
      * ``greenshields``: F(rho) = v_free * rho * (1 - rho/rho_jam)
      * ``triangular``:   F(rho) = min(v_free*rho, w_back*(rho_jam - rho))
      * ``sampled``:      concave piecewise-linear through given breakpoints,
                          an (n, 2) array of (density, flow) points

    Greenshields keeps its closed forms; every piecewise-linear kind is held
    as one table (see ``_init_table``).  A triangular flux is the three-point
    table (0, 0), (rho_star, F_max), (rho_jam, 0) with free-flow pace 1/v_free.

    Instances are immutable after construction and safe to share.
    """

    KINDS = {   # parameter -> default, None for a required one
        "greenshields": {"v_free": None, "rho_jam": None},
        "triangular": {"v_free": None, "w_back": None, "rho_jam": None},
        "sampled": {"breakpoints": None},
    }

    def __init__(self, kind, params):
        self.kind = kind
        self.params = kind_params(self.KINDS, kind, params, "flux")
        if kind == "greenshields":
            a, R = map(float, self.params.values())
            if not (0 < a < np.inf and 0 < R < np.inf):
                raise ConfigurationError("greenshields needs finite v_free > 0, rho_jam > 0")
            self._set_range(R, R / 2.0, a * R / 4.0, 1.0 / a)
            self._kinks = None
        elif kind == "triangular":
            a, w, R = map(float, self.params.values())
            if not all(0 < x < np.inf for x in (a, w, R)):
                raise ConfigurationError("triangular needs finite v_free, w_back, rho_jam > 0")
            rho_star = w * R / (a + w)
            self._set_range(R, rho_star, a * rho_star, 1.0 / a)
            self._init_table(np.array([[0.0, 0.0], [rho_star, self.f_max], [R, 0.0]]), 1,
                             self.free_flow_pace)
        else:
            self._init_sampled(self.params["breakpoints"])

    # -- constructors -------------------------------------------------

    @classmethod
    def greenshields(cls, v_free, rho_jam):
        return cls("greenshields", {"v_free": v_free, "rho_jam": rho_jam})

    @classmethod
    def triangular(cls, v_free, w_back, rho_jam):
        return cls("triangular", {"v_free": v_free, "w_back": w_back, "rho_jam": rho_jam})

    @classmethod
    def sampled(cls, breakpoints):
        return cls("sampled", {"breakpoints": breakpoints})

    def _init_sampled(self, breakpoints):
        """Check the breakpoints, with tolerances relative to the flux's largest
        flow and slope, and build the table from them with zero end flows."""
        pts = np.array(breakpoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3 or not np.isfinite(pts).all():
            raise ConfigurationError("sampled flux needs >= 3 finite (density, flow) points")
        rho, q = pts[:, 0], pts[:, 1]
        if not np.all(np.diff(rho) > 0):
            raise ConfigurationError("sampled flux densities must be strictly increasing")
        q_tol = _TOL * np.max(np.abs(q))
        if abs(rho[0]) > 0 or abs(q[0]) > q_tol or abs(q[-1]) > q_tol:
            raise ConfigurationError("sampled flux must start at (0, 0) and end at (rho_jam, 0)")
        if np.any(q < -q_tol):
            raise ConfigurationError("sampled flux must be nonnegative")
        q[0] = q[-1] = 0.0
        slopes = np.diff(q) / np.diff(rho)
        s_tol = _TOL * np.max(np.abs(slopes))
        if np.any(np.diff(slopes) > s_tol):
            raise ConfigurationError("sampled flux must be concave")
        i_star = int(np.argmax(q))
        while i_star > 0 and slopes[i_star - 1] <= s_tol:    # on a flat top, take its left end
            i_star -= 1
        if i_star == 0 or i_star == len(q) - 1:
            raise ConfigurationError("sampled flux capacity must be interior")
        # reject flat segments on the increasing branch: g would be set-valued
        if np.any(slopes[:i_star] <= s_tol):
            raise ConfigurationError(
                "sampled flux must be strictly increasing up to its capacity point"
            )
        self._init_table(pts, i_star)
        self._set_range(rho[-1], rho[i_star], q[i_star], self._kinks[0])

    def _set_range(self, rho_jam, rho_star, f_max, free_flow_pace):
        """Set the derived quantities, which rounding can push onto 0, rho_jam or inf."""
        if not (0 < rho_star < rho_jam and 0 < f_max < np.inf and 0 < free_flow_pace < np.inf):
            raise ConfigurationError(
                f"{self.kind} flux needs 0 < rho_star < rho_jam and finite F_max, pace > 0; "
                f"got {rho_star=:g}, {rho_jam=:g}, {f_max=:g}, {free_flow_pace=:g}")
        self.rho_jam = float(rho_jam)
        self.rho_star = float(rho_star)
        self.f_max = float(f_max)
        self.free_flow_pace = float(free_flow_pace)

    def _init_table(self, pts, i_star, free_flow_pace=None):
        """Breakpoints ``pts`` (density, flow) with capacity point ``i_star``, g on
        the rising branch, and the kinks p_k of g* (g's slopes) with g* = p_k*u_k - g(u_k).

        g is the convex hull of the rising breakpoints: a point where F's slope
        does not fall (a collinear point, or a convex wobble that the sampled
        checks forgive) is dropped, so the kinks increase strictly, as
        ``np.interp`` needs.  A triangular flux passes its exact pace 1/v_free as
        ``free_flow_pace`` in place of the rounded first kink.
        """
        self._rho, self._q = pts[:, 0], pts[:, 1]
        u, rho = self._q[: i_star + 1], self._rho[: i_star + 1]

        def kink(a, b):     # as np.diff(rho) / np.diff(u) computes it
            return (rho[b] - rho[a]) / (u[b] - u[a])

        hull = [0]
        for i in range(1, i_star + 1):
            while len(hull) > 1 and kink(hull[-2], hull[-1]) >= kink(hull[-1], i):
                hull.pop()
            hull.append(i)
        self._g_u, self._g_rho = u[hull], rho[hull]
        self._kinks = np.diff(self._g_rho) / np.diff(self._g_u)
        if free_flow_pace is not None:
            self._kinks[0] = free_flow_pace
        self._kinks.flags.writeable = False
        self._gstar = self._kinks * self._g_u[:-1] - self._g_rho[:-1]

    # -- basic queries ------------------------------------------------

    @property
    def speed_at_capacity(self):
        """v(rho_star) = F_max / rho_star, the slowest uncongested speed."""
        return self.f_max / self.rho_star

    def flow(self, rho):
        """Evaluate F(rho).  Raises DomainError outside [0, rho_jam]."""
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr < -_TOL) or np.any(rho_arr > self.rho_jam + _TOL):
            raise DomainError(f"density outside [0, {self.rho_jam}]")
        rho_arr = np.clip(rho_arr, 0.0, self.rho_jam)
        if self.kind == "greenshields":
            a, R = self.params["v_free"], self.params["rho_jam"]
            out = a * rho_arr * (1.0 - rho_arr / R)
        else:
            out = np.interp(rho_arr, self._rho, self._q)
        out = np.maximum(out, 0.0)
        return float(out) if np.isscalar(rho) else out

    def density(self, u):
        """Inverse of the increasing branch: the rho in [0, rho_star] with F(rho) = u.

        Raises CapacityError for u > F_max.
        """
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < -_TOL):
            raise DomainError("flow must be nonnegative")
        if np.any(u_arr > self.f_max * (1.0 + 1e-12) + _TOL):
            raise CapacityError(f"flow exceeds capacity F_max = {self.f_max}")
        u_arr = np.clip(u_arr, 0.0, self.f_max)
        if self.kind == "greenshields":
            a, R = self.params["v_free"], self.params["rho_jam"]
            out = 0.5 * R * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - 4.0 * u_arr / (a * R))))
        else:
            out = np.interp(u_arr, self._g_u, self._g_rho)
        return float(out) if np.isscalar(u) else out

    def conjugate(self, p):
        """Legendre conjugate g*(p) = max_{u in [0, F_max]} (p*u - g(u)).

        Extended by zero for p below the free-flow pace (including p < 0),
        where the maximizer is u = 0.
        """
        p_arr = np.asarray(p, dtype=float)
        if self.kind == "greenshields":
            a, R = self.params["v_free"], self.params["rho_jam"]
            # R*(ap - 1)**2 / (4*ap) as 0.25*R*d*(d/ap), d = ap - 1: no square to
            # overflow at huge paces, d exact near ap = 1, and ap >= 1 keeps tiny
            # paces, where g* is 0, from dividing by zero or overflowing
            ap = np.maximum(a * p_arr, 1.0)
            d = ap - 1.0
            out = np.where(p_arr <= self.free_flow_pace, 0.0, 0.25 * R * d * (d / ap))
        else:
            # linear between kinks, slope F_max beyond the last; with one kink,
            # a triangular flux's, the interpolated g* is the constant g*(p_0) = 0
            out = self.f_max * np.maximum(0.0, p_arr - self._kinks[-1])
            if len(self._kinks) > 1:
                out += np.interp(p_arr, self._kinks, self._gstar)
        return float(out) if np.isscalar(p) else out

    def conjugate_inverse(self, x):
        """The pace p with g*(p) = x, elementwise for x >= 0.

        For x > 0 it is the only such p; at x = 0, where g* vanishes on all
        p <= free-flow pace, it is the free-flow pace.
        """
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0):
            raise DomainError("conjugate_inverse needs x >= 0")
        if self.kind == "greenshields":
            # larger root of R*(a*p - 1)**2 = 4*x*a*p
            a, R = self.params["v_free"], self.params["rho_jam"]
            out = (1.0 + 2.0 * x_arr / R + 2.0 * np.sqrt(x_arr * (R + x_arr)) / R) / a
        else:
            with np.errstate(over="ignore"):     # a pace past the float range is inf
                out = np.maximum(0.0, x_arr - self._gstar[-1]) / self.f_max
            if len(self._kinks) > 1:
                out += np.interp(x_arr, self._gstar, self._kinks)
            else:
                out += self._kinks[0]
        return float(out) if np.isscalar(x) else out

    def wave_pace(self, u):
        """g'(u) = 1 / F'(g(u)), the pace of kinematic waves at uncongested flow u.

        Defined for u in [0, F_max); a Greenshields u that rounds onto the
        capacity gives inf.  Piecewise-linear fluxes take the slope of the g
        segment starting at or below u.
        """
        u_arr = np.asarray(u, dtype=float)
        if self.kind == "greenshields":
            a, R = self.params["v_free"], self.params["rho_jam"]
            with np.errstate(divide="ignore"):
                out = 1.0 / (a * np.sqrt(np.maximum(0.0, 1.0 - 4.0 * u_arr / (a * R))))
        else:
            out = self._kinks[np.searchsorted(self._g_u[1:-1], u_arr, side="right")]
        return float(out) if np.isscalar(u) else out

    def conjugate_kinks(self):
        """Pace values where g* changes slope, or None for smooth kinds.

        A non-None return (read-only) means g* is exactly piecewise linear:
        zero up to the first kink (the free-flow pace), then convex with
        slopes equal to the increasing-branch flow values, ending at F_max.
        """
        return self._kinks

    def __repr__(self):
        if self.kind == "sampled":
            return f"FluxDescriptor(sampled, {len(self._rho)} pts, F_max={self.f_max:g})"
        args = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"FluxDescriptor({self.kind}, {args})"


@dataclass(frozen=True)
class ArcDescriptor:
    """A directed viable arc: endpoints, length, and flux function."""

    from_node: str
    to_node: str
    length: float
    flux: FluxDescriptor

    def __post_init__(self):
        if not 0 < self.length < np.inf:
            raise ConfigurationError(
                f"arc {self.from_node}->{self.to_node} must have finite positive length"
            )

    @property
    def mu(self):
        """Minimum (free-flow) traversal time."""
        return self.length * self.flux.free_flow_pace

    @property
    def key(self):
        return (self.from_node, self.to_node)

    def minplus_kernel(self, s):
        """K(s) = L * g*(s/L), elementwise: zero for s <= mu, convex after."""
        s = np.asarray(s, dtype=float)
        return self.length * self.flux.conjugate(s / self.length)

    def minplus_kernel_inverse(self, y):
        """K^-1(y) = L * (g*)^-1(y/L) for y >= 0, with K^-1(0) = mu."""
        y = np.asarray(y, dtype=float)
        return self.length * self.flux.conjugate_inverse(y / self.length)

    def __repr__(self):
        return f"Arc({self.from_node}->{self.to_node}, L={self.length:g}, {self.flux.kind})"

