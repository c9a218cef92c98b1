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
            self.rho_jam = R
            self.rho_star = R / 2.0
            self.f_max = a * R / 4.0
            self.free_flow_pace = 1.0 / a
        elif kind == "triangular":
            a, w, R = map(float, self.params.values())
            if not all(0 < x < np.inf for x in (a, w, R)):
                raise ConfigurationError("triangular needs finite v_free, w_back, rho_jam > 0")
            self.rho_jam = R
            self.rho_star = w * R / (a + w)
            self.f_max = a * self.rho_star
            self.free_flow_pace = 1.0 / a
        else:
            self._init_sampled(self.params["breakpoints"])
        self._validate()

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
        pts = np.asarray(breakpoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3 or not np.isfinite(pts).all():
            raise ConfigurationError("sampled flux needs >= 3 finite (density, flow) points")
        rho, q = pts[:, 0], pts[:, 1]
        if not np.all(np.diff(rho) > 0):
            raise ConfigurationError("sampled flux densities must be strictly increasing")
        if abs(rho[0]) > 0 or abs(q[0]) > _TOL or abs(q[-1]) > _TOL:
            raise ConfigurationError("sampled flux must start at (0, 0) and end at (rho_jam, 0)")
        if np.any(q < -_TOL):
            raise ConfigurationError("sampled flux must be nonnegative")
        slopes = np.diff(q) / np.diff(rho)
        if np.any(np.diff(slopes) > _TOL):
            raise ConfigurationError("sampled flux must be concave")
        i_star = int(np.argmax(q))
        while i_star > 0 and slopes[i_star - 1] <= _TOL:    # on a flat top, take its left end
            i_star -= 1
        if i_star == 0 or i_star == len(q) - 1:
            raise ConfigurationError("sampled flux capacity must be interior")
        # reject flat segments on the increasing branch: g would be set-valued
        if np.any(slopes[:i_star] <= _TOL):
            raise ConfigurationError(
                "sampled flux must be strictly increasing up to its capacity point"
            )
        self.rho_jam = float(rho[-1])
        self.rho_star = float(rho[i_star])
        self.f_max = float(q[i_star])
        self._rho = rho
        self._q = q
        # increasing-branch table: g maps flow -> density
        self._g_u = q[: i_star + 1]
        self._g_rho = rho[: i_star + 1]
        self._g_slopes = np.diff(self._g_rho) / np.diff(self._g_u)
        self.free_flow_pace = float(self._g_slopes[0])

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
        elif self.kind == "triangular":
            a, w, R = (self.params[k] for k in ("v_free", "w_back", "rho_jam"))
            out = np.minimum(a * rho_arr, w * (R - rho_arr))
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
        elif self.kind == "triangular":
            out = u_arr / self.params["v_free"]
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
            ap = a * p_arr
            with np.errstate(divide="ignore", invalid="ignore"):
                val = R * (ap - 1.0) ** 2 / (4.0 * ap)
            out = np.where(p_arr <= self.free_flow_pace, 0.0, val)
        elif self.kind == "triangular":
            out = self.f_max * np.maximum(0.0, p_arr - self.free_flow_pace)
        else:
            # conjugate of a convex piecewise-linear function: max over vertices
            vals = p_arr[..., None] * self._g_u - self._g_rho
            out = np.maximum(np.max(vals, axis=-1), 0.0)
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
        elif self.kind == "triangular":
            out = self.free_flow_pace + x_arr / self.f_max
        else:
            kinks = np.asarray(self.conjugate_kinks())
            vals = self.conjugate(kinks)
            out = np.where(x_arr <= vals[-1], np.interp(x_arr, vals, kinks),
                           kinks[-1] + (x_arr - vals[-1]) / self.f_max)
            out = np.where(x_arr == 0.0, self.free_flow_pace, out)
        return float(out) if np.isscalar(x) else out

    def wave_pace(self, u):
        """g'(u) = 1 / F'(g(u)), the pace of kinematic waves at uncongested flow u.

        Defined for u in [0, F_max); a Greenshields u that rounds onto the
        capacity gives inf.  Sampled fluxes take the slope of the g segment
        starting at or below u.
        """
        u_arr = np.asarray(u, dtype=float)
        if self.kind == "greenshields":
            a, R = self.params["v_free"], self.params["rho_jam"]
            with np.errstate(divide="ignore"):
                out = 1.0 / (a * np.sqrt(np.maximum(0.0, 1.0 - 4.0 * u_arr / (a * R))))
        elif self.kind == "triangular":
            out = np.full_like(u_arr, self.free_flow_pace)
        else:
            i = np.searchsorted(self._g_u, u_arr, side="right") - 1
            out = self._g_slopes[np.clip(i, 0, len(self._g_slopes) - 1)]
        return float(out) if np.isscalar(u) else out

    def conjugate_kinks(self):
        """Pace values where g* changes slope, or None for smooth kinds.

        A non-None return means g* is exactly piecewise linear: zero up to
        the first kink (the free-flow pace), then convex with slopes equal
        to the increasing-branch flow values, ending at slope F_max.
        """
        if self.kind == "triangular":
            return [self.free_flow_pace]
        if self.kind == "sampled":
            return [self.free_flow_pace] + list(self._g_slopes[1:])
        return None

    # -- validation ---------------------------------------------------

    def _validate(self):
        grid = np.linspace(0.0, self.rho_jam, 1001)
        f = self.flow(grid)
        if abs(f[0]) > _TOL or abs(f[-1]) > _TOL:
            raise ConfigurationError("flux must vanish at rho = 0 and rho = rho_jam")
        if np.any(f < -_TOL):
            raise ConfigurationError("flux must be nonnegative")
        d2 = np.diff(f, 2)
        if np.any(d2 > 1e-7 * max(1.0, self.f_max)):
            raise ConfigurationError("flux must be concave")
        inc = grid <= self.rho_star
        df = np.diff(f[inc])
        if np.any(df < -_TOL):
            raise ConfigurationError("flux must be increasing up to rho_star")

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

