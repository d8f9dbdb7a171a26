"""Finite trigonometric polynomials with exact derivatives.

Everything evaluated along orbits in this package is a finite sum

    f(x, t) = sum_j  c_j * trig_j(2*pi*(k_j . x + m_j * t)),    trig in {cos, sin},

with integer wave vectors ``k_j`` and integer time frequencies ``m_j``. The
class below keeps the terms in canonical form so that sums and products stay
in the family (product-to-sum identities) and so that gradients, time
derivatives, sup-norm coefficient bounds and Lipschitz bounds are all exact.

Every number the package calls certified comes from one rule,
``TrigPoly.certified_bounds``: the extremes of f on a uniform grid, widened by
the exact Lipschitz pad (h/2) * 2 pi sum ||k_j||_1 |c_j| (the error bound of
interpolating from the nearest grid node). The sharpness slope applies it to
u', the bracket bound to {F, alpha}, and the suspension's r-bound to F itself.

Values, gradients, time derivatives and field velocities (x -> M grad f + c)
are all sums g = sum_j sin(theta_j + q_j pi/2) w_j, theta_j = 2 pi (k_j.x + m_j t),
with quarter turns q_j (cos is sin turned once; d/dx turns once more) and real
weight rows w_j. One evaluator per polynomial, cached on first use, sums them
with a kernel picked from the spectrum: sparse (one sin per term and point)
unless some active axis of (x, t) carries |k| >= DENSE_MIN_K; then dense,
by the lattice identity e^{i theta_j} = prod_a z_a^{k_ja}, z_a = e^{2 pi i x_a}:
one cos/sin pair per axis and point, powers z_a^k by doubling products, terms
on one wave merged into one complex amplitude, and one complex matmul.

A TrigPoly is also the package's Hamiltonian: F(x) or the 1-periodic F(x, t)
(``is_time_dependent``). Its ``metadata`` dict holds what is true of that one
function, such as a pinned profile's pins and certified slope bound; every
derived polynomial (sums, products, derivatives, scalar multiples and the
``zero``/``constant``/``wave`` constructors) starts with it empty, because a
certificate of F is no certificate of 2 F.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

COS, SIN = 0, 1

MIN_GRID_RES = 16  # fewest points per axis a caller's certificate grid may ask for
MAX_GRID_POINTS = 2 ** 26  # most points of a certificate grid


class TrigPoly:
    """A trigonometric polynomial on R^dim x R_t, 1-periodic in every slot.

    Parameters
    ----------
    dim : int
        Number of spatial coordinates.
    coeffs, kvecs, tfreq, is_sin : array_like
        Per-term amplitude, integer wave vector (terms, dim), integer time
        frequency, and trig kind (0 = cos, 1 = sin). Terms are canonicalized
        (first nonzero of (k, m) made positive) and merged on construction.
    metadata : dict, optional
        Facts about this function, stored as a fresh dict (empty by default).
    """

    __slots__ = ("dim", "coeffs", "kvecs", "tfreq", "is_sin", "metadata", "_cache")

    def __init__(self, dim, coeffs, kvecs, tfreq, is_sin, metadata=None):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        kvecs = np.asarray(kvecs, dtype=np.int64).reshape(len(coeffs), dim)
        tfreq = np.atleast_1d(np.asarray(tfreq, dtype=np.int64))
        is_sin = np.atleast_1d(np.asarray(is_sin, dtype=np.int64))
        self.dim = int(dim)
        self.coeffs, self.kvecs, self.tfreq, self.is_sin = _canonicalize(
            coeffs, kvecs, tfreq, is_sin
        )
        for arr in (self.coeffs, self.kvecs, self.tfreq, self.is_sin):
            arr.flags.writeable = False
        self.metadata = dict(metadata or {})
        self._cache = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, np.zeros(0), np.zeros((0, dim)), np.zeros(0), np.zeros(0))

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, [value], np.zeros((1, dim)), [0], [COS])

    @classmethod
    def wave(cls, dim, coeff, kvec, tfreq=0, kind="cos"):
        """Single term coeff * cos/sin(2*pi*(k.x + m t))."""
        return cls(dim, [coeff], [kvec], [tfreq], [SIN if kind == "sin" else COS])

    # -- algebra -------------------------------------------------------------

    @property
    def n_terms(self):
        return len(self.coeffs)

    def __add__(self, other):
        if np.isscalar(other):
            other = TrigPoly.constant(self.dim, float(other))
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in TrigPoly sum")
        return TrigPoly(
            self.dim,
            np.concatenate([self.coeffs, other.coeffs]),
            np.concatenate([self.kvecs, other.kvecs]),
            np.concatenate([self.tfreq, other.tfreq]),
            np.concatenate([self.is_sin, other.is_sin]),
        )

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TrigPoly) else -float(other))

    def __mul__(self, other):
        """The pointwise ``product`` with a TrigPoly, else the scalar multiple."""
        if isinstance(other, TrigPoly):
            return self.product(other)
        return TrigPoly(self.dim, self.coeffs * float(other), self.kvecs, self.tfreq, self.is_sin)

    __rmul__ = __mul__

    def product(self, other):
        """Pointwise product, expanded back into the family.

        Uses cos A cos B = (cos(A-B) + cos(A+B))/2 and its three siblings, so
        the result is again an exact trigonometric polynomial.
        """
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in TrigPoly product")
        if self.n_terms == 0 or other.n_terms == 0:
            return TrigPoly.zero(self.dim)
        # term pairs (i, j), each giving two pieces: (A - B, A + B) for equal
        # kinds (cos result), (A + B, A - B) for mixed kinds (sin result); the
        # second piece is negated when the right factor is a sin.
        half = 0.5 * self.coeffs[:, None] * other.coeffs[None, :]
        mixed = self.is_sin[:, None] != other.is_sin[None, :]
        second = np.where(other.is_sin[None, :] == SIN, -half, half)
        ka, kb = self.kvecs[:, None, :], other.kvecs[None, :, :]
        ma, mb = self.tfreq[:, None], other.tfreq[None, :]
        kp, km, mp, mm = ka + kb, ka - kb, ma + mb, ma - mb
        k1, k2 = np.where(mixed[..., None], kp, km), np.where(mixed[..., None], km, kp)
        m1, m2 = np.where(mixed, mp, mm), np.where(mixed, mm, mp)
        kind = np.where(mixed, SIN, COS)
        return TrigPoly(
            self.dim,
            np.stack([half, second], axis=2).ravel(),
            np.stack([k1, k2], axis=2).reshape(-1, self.dim),
            np.stack([m1, m2], axis=2).ravel(),
            np.stack([kind, kind], axis=2).ravel(),
        )

    # -- calculus ------------------------------------------------------------

    def derivative(self, direction):
        """The derivative along the vector ``direction`` (dim,), sum_j direction_j
        d/dx_j, as a new TrigPoly (exact)."""
        # d/dx cos(2*pi*phi) = -2*pi*(k.v) sin(...);  d/dx sin = +2*pi*(k.v) cos(...)
        sign = np.where(self.is_sin == SIN, 1.0, -1.0)
        coeffs = self.coeffs * TWO_PI * (self.kvecs @ np.asarray(direction, dtype=float)) * sign
        return TrigPoly(self.dim, coeffs, self.kvecs, self.tfreq, 1 - self.is_sin)

    def partial(self, j):
        """d/dx_j as a new TrigPoly (exact)."""
        return self.derivative(np.eye(self.dim)[j])

    # -- evaluation ----------------------------------------------------------

    def _evaluators(self):
        """(lattice, value, gradient, d/dt) evaluators, built on first use."""
        if self._cache is None:
            lattice, amps = _Lattice(self.kvecs, self.tfreq), TWO_PI * self.coeffs
            turns = 1 - self.is_sin
            self._cache = (lattice, _TrigMap(lattice, self.coeffs, np.ones(self.n_terms), turns),
                           _TrigMap(lattice, amps, self.kvecs.astype(float), turns + 1),
                           _TrigMap(lattice, amps, self.tfreq.astype(float), turns + 1))
        return self._cache

    def eval(self, X, t=0.0):
        """Evaluate at points X of shape (..., dim); returns shape (...)."""
        return self._evaluators()[1](X, t)

    def grad(self, X, t=0.0):
        """Gradient in x at points X of shape (..., dim); returns (..., dim)."""
        return self._evaluators()[2](X, t)

    def dt(self, X, t=0.0):
        """Exact d/dt at points X; identically zero unless ``is_time_dependent``."""
        return self._evaluators()[3](X, t)

    def gradient_map(self, matrix, const=None):
        """(X, t) -> matrix @ grad f(X, t) + const as a callable that negates with ``-``."""
        matrix = np.asarray(matrix, dtype=float)
        const = np.zeros(matrix.shape[0]) if const is None else np.asarray(const, dtype=float)
        return _TrigMap(self._evaluators()[0], TWO_PI * self.coeffs,
                        self.kvecs @ matrix.T, 2 - self.is_sin, const)

    def grid_values(self, grid_res):
        """f on the uniform grid of grid_res points per axis of (x, t) it depends on."""
        active = self.active_dims()
        n = len(active) + self.is_time_dependent
        grid = lattice_indices(n, grid_res) / grid_res
        X = np.zeros((len(grid), self.dim))
        X[:, active] = grid[:, :len(active)]
        return self.eval(X, grid[:, -1] if self.is_time_dependent else 0.0)

    # -- bounds and structure --------------------------------------------------

    @property
    def is_time_dependent(self):
        return bool(np.any(self.tfreq != 0))

    def abs_coeff_sum(self):
        """sum |c_j|: an upper bound for the sup norm."""
        return float(np.abs(self.coeffs).sum())

    def grad_l1_bound(self):
        """2*pi*sum ||k_j||_1 |c_j|: bounds sum_i |df/dx_i| (t included) everywhere."""
        kl1 = np.abs(self.kvecs).sum(axis=1) + np.abs(self.tfreq)
        return float(TWO_PI * (kl1 * np.abs(self.coeffs)).sum())

    def certified_bounds(self, grid_res):
        """(grid_min, grid_max, pad): every value of f lies in [grid_min - pad, grid_max + pad].

        grid_min and grid_max are the extremes of ``grid_values(grid_res)``, and
        pad = (h/2) * grad_l1_bound() with h = 1/grid_res: every point of (x, t)
        is within h/2 of a grid node along each active axis, and f moves by at
        most sup|d_i f| per unit along axis i; this holds at any grid_res >= 1.
        (0.0, 0.0, 0.0) for no terms. Raises ValueError above ``MAX_GRID_POINTS``
        grid points.
        """
        if self.n_terms == 0:
            return 0.0, 0.0, 0.0
        n_axes = len(self.active_dims()) + self.is_time_dependent
        if grid_res ** n_axes > MAX_GRID_POINTS:
            raise ValueError(f"certificate grid of {grid_res}^{n_axes} points is too large")
        values = self.grid_values(grid_res)
        return float(values.min()), float(values.max()), 0.5 * self.grad_l1_bound() / grid_res

    def active_dims(self):
        """Indices of coordinates the polynomial actually depends on."""
        if self.n_terms == 0:
            return np.zeros(0, dtype=int)
        return np.nonzero(np.any(self.kvecs != 0, axis=0))[0]

    def __repr__(self):
        return f"TrigPoly(dim={self.dim}, terms={self.n_terms})"


def lattice_indices(n_axes, per_axis):
    """{0..per_axis-1}^n_axes as (per_axis**n_axes, n_axes) rows in C order (last axis
    fastest): every sample grid's row order, and so every seed index, comes from here."""
    return np.indices((per_axis,) * n_axes).reshape(n_axes, per_axis ** n_axes).T


def _canonicalize(coeffs, kvecs, tfreq, is_sin):
    """Flip term orientations so (k, m) leads with a positive entry, merge duplicates."""
    keys = np.concatenate([kvecs, tfreq[:, None], is_sin[:, None]], axis=1)
    lead = keys[np.arange(len(keys)), np.argmax(keys[:, :-1] != 0, axis=1)]  # 0: constant
    sign = np.where(lead < 0, -1, 1)
    keys[:, :-1] *= sign[:, None]
    # sin(-x) = -sin(x), cos unchanged; sin(0) = 0
    coeffs = np.where(is_sin == SIN, np.where(lead == 0, 0.0, sign * coeffs), coeffs)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    merged = np.zeros(len(uniq))
    np.add.at(merged, inv, coeffs)
    keep = merged != 0.0
    d = kvecs.shape[1]
    return merged[keep], uniq[keep, :d], uniq[keep, d], uniq[keep, d + 1]


# Timed with one BLAS thread on a 2-vCPU VM, 1-D full spectra (cos and sin at
# each |k| <= K) as a field velocity, sparse/dense us per call: 6-10/12-26 at
# batch 1 for every K (dense pays ~20 numpy calls); even near K = 8-12 at batch
# 64; 23/22 at K = 2 and 93/45 at K = 8 at batch 256; 84/43 at K = 2 and
# 2494/207 at K = 48 at batch 1024. From 8 on, dense wins at every batch of 64
# or more; below, sparse wins single orbits and stays within 1.3x at batch 256.
# So the profile fields (K = 24-48, 1024 seeds, 4096-8192 point grids) go dense
# and the |k| <= 2 fields of single orbits and 256-seed searches stay sparse.
DENSE_MIN_K = 8

# quarter turns q -> u with sin(th + q pi/2) = Re(u e^{i th})
_QUARTER_UNITS = np.array([-1j, 1.0, 1j, -1.0])


class _Lattice:
    """The waves of one TrigPoly laid out for its kernel; ``rows`` (dense only)
    maps each term to its wave, a row of the product of the axis power tables."""

    __slots__ = ("kmat", "tvec", "space_axes", "top", "rows", "n_rows", "cols")

    def __init__(self, kvecs, tfreq):
        self.kmat = TWO_PI * kvecs.T.astype(float)
        self.tvec = TWO_PI * tfreq.astype(float) if np.any(tfreq) else None
        waves = np.concatenate([kvecs, tfreq[:, None]], axis=1)
        axes = np.nonzero(np.any(waves != 0, axis=0))[0]
        self.rows = None
        if not len(axes) or np.abs(waves[:, axes]).max() < DENSE_MIN_K:
            return
        self.space_axes, waves = axes[axes < kvecs.shape[1]], waves[:, axes]
        self.top = np.abs(waves).max(axis=0)
        if len(axes) == 1:  # k >= 0 in canonical form: the power table is the wave table
            self.rows, self.n_rows, self.cols = waves[:, 0], self.top[0] + 1, None
        else:  # rows of the tables z^-top .. z^top
            uniq, self.rows = np.unique(waves + self.top, axis=0, return_inverse=True)
            self.n_rows, self.cols = len(uniq), uniq.T


class _TrigMap:
    """(X, t) -> sum_j amps_j sin(th_j + turns_j pi/2) weights_j + const, where
    ``weights`` is (terms,) for a scalar map and (terms, rows) for a vector map."""

    __slots__ = ("amps", "const", "_lattice", "_weights", "_turns", "_poff", "_W", "_A")

    def __init__(self, lattice, amps, weights, turns, const=0.0):
        self.amps, self.const = amps, const
        self._lattice, self._weights, self._turns = lattice, weights, turns
        W = (weights.T * amps).T
        if lattice.rows is None:
            self._poff, self._W = 0.5 * np.pi * turns, W
        else:
            self._A = np.zeros((lattice.n_rows,) + W.shape[1:], dtype=complex)
            np.add.at(self._A, lattice.rows, (W.T * _QUARTER_UNITS[turns]).T)

    def __neg__(self):
        return _TrigMap(self._lattice, -self.amps, self._weights, self._turns, -self.const)

    def __call__(self, X, t=0.0):
        X = np.asarray(X, dtype=float)
        lat, shape = self._lattice, X.shape[:-1]
        if not len(self.amps):
            return np.broadcast_to(self.const, shape + self._weights.shape[1:]).copy()
        if lat.rows is None:
            ph = X @ lat.kmat + self._poff
            if lat.tvec is not None:
                ph = ph + lat.tvec * (t if np.isscalar(t) else np.asarray(t)[..., None])
            return np.sin(ph) @ self._W + self.const
        pts = X.reshape(-1, X.shape[-1])[:, lat.space_axes].T
        if lat.tvec is not None:  # t is an axis of the table too
            pts = np.concatenate([pts, np.broadcast_to(t, shape).reshape(1, -1)])
        ang = TWO_PI * pts
        z = np.empty(ang.shape, dtype=complex)
        z.real, z.imag = np.cos(ang), np.sin(ang)
        if lat.cols is None:
            waves = _powers(z[0], lat.top[0])
        else:
            waves = 1.0
            for a, cols in enumerate(lat.cols):
                P = _powers(z[a], lat.top[a])
                waves = waves * np.concatenate([P[:0:-1].conj(), P])[cols]
        return (self._A.T @ waves).real.T.reshape(shape + self._A.shape[1:]) + self.const


def _powers(z, top):
    """Rows z**0 .. z**top; each doubling round multiplies the rows so far by z**n."""
    P = np.empty((top + 1, len(z)), dtype=complex)
    P[0], P[1] = 1.0, z
    n = 2
    while n <= top:
        out = P[n:2 * n]
        np.multiply(P[:len(out)], P[n // 2] * P[n // 2], out=out)
        n *= 2
    return P
