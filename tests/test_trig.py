import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotvec.geometry import torus
from rotvec.suspension import SuspendedHamiltonian, extended_point, suspended_field
from rotvec.trig import COS, DENSE_MIN_K, MAX_GRID_POINTS, SIN, TWO_PI, TrigPoly, _canonicalize


def test_wave_eval_matches_closed_form():
    f = TrigPoly.wave(2, 0.7, [1, -2], 0, "cos")
    x = np.array([[0.3, 0.1], [0.0, 0.0], [0.25, 0.5]])
    expected = 0.7 * np.cos(2 * np.pi * (x[:, 0] - 2 * x[:, 1]))
    assert np.allclose(f.eval(x), expected, atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    f = TrigPoly.zero(3)
    for _ in range(5):
        f = f + TrigPoly.wave(3, rng.normal(), rng.integers(-3, 4, 3),
                              int(rng.integers(-2, 3)), "sin" if rng.random() < 0.5 else "cos")
    x = rng.random((10, 3))
    t = 0.37
    g = f.grad(x, t)
    h = 1e-6
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        fd = (f.eval(x + dx, t) - f.eval(x - dx, t)) / (2 * h)
        assert np.allclose(g[:, j], fd, atol=1e-7)


def dds(F, x, s):
    """dF/ds at (x, s), read where the package uses it: the suspended field's
    r-velocity is rdot = -dF/ds."""
    H = SuspendedHamiltonian(F, torus(F.dim // 2))
    z = extended_point(x, 0.0, s, H.nspace)
    return -suspended_field(H).velocity(z[None])[0, F.dim // 2]


def test_dt_matches_finite_differences():
    f = TrigPoly.wave(2, 1.3, [1, 0], 2, "sin") + TrigPoly.wave(2, -0.4, [0, 1], 1, "cos")
    x = np.array([[0.2, 0.7]])
    t = 0.11
    h = 1e-6
    fd = (f.eval(x, t + h) - f.eval(x, t - h)) / (2 * h)
    assert np.allclose(dds(f, x[0], t), fd, atol=1e-7)


def test_partial_is_exact_derivative_poly():
    f = TrigPoly.wave(2, 2.0, [3, 1], 0, "cos")
    df = f.partial(0)
    x = np.random.default_rng(1).random((20, 2))
    expected = -2.0 * 2 * np.pi * 3 * np.sin(2 * np.pi * (3 * x[:, 0] + x[:, 1]))
    assert np.allclose(df.eval(x), expected, atol=1e-12)


def test_product_to_sum_identity():
    # sin(A) sin(B) expanded back into waves must evaluate identically
    a = TrigPoly.wave(2, 1.0, [1, 0], 0, "sin")
    b = TrigPoly.wave(2, 1.0, [0, 1], 0, "sin")
    prod = a.product(b)
    assert prod.n_terms == 2
    x = np.random.default_rng(2).random((50, 2))
    assert np.allclose(prod.eval(x), a.eval(x) * b.eval(x), atol=1e-14)


def test_product_with_time_frequencies():
    a = TrigPoly.wave(1, 0.2, [1], 0, "sin")
    b = TrigPoly.wave(1, 1.0, [0], 1, "sin")
    prod = a.product(b)
    x = np.random.default_rng(3).random((20, 1))
    for t in (0.0, 0.3, 0.77):
        assert np.allclose(prod.eval(x, t), a.eval(x, t) * b.eval(x, t), atol=1e-14)


def test_canonicalization_merges_mirror_terms():
    # cos(-k.x) = cos(k.x): the two terms must merge into one
    f = TrigPoly(1, [1.0, 2.0], [[1], [-1]], [0, 0], [COS, COS])
    assert f.n_terms == 1
    assert np.isclose(f.eval(np.array([[0.0]]))[0], 3.0)
    # sin(-k.x) = -sin(k.x): equal coefficients cancel entirely
    g = TrigPoly(1, [1.0, 1.0], [[1], [-1]], [0, 0], [SIN, SIN])
    assert g.n_terms == 0


def test_constant_sin_term_drops():
    f = TrigPoly(1, [5.0], [[0]], [0], [SIN])
    assert f.n_terms == 0


def test_periodicity_in_every_slot():
    f = TrigPoly.wave(2, 0.9, [2, -1], 3, "sin")
    x = np.array([[0.4, 0.8]])
    shift = np.array([[5.0, -2.0]])
    assert np.isclose(f.eval(x, 0.6), f.eval(x + shift, 0.6), atol=1e-12)
    assert np.isclose(f.eval(x, 0.6), f.eval(x, 1.6), atol=1e-12)


def test_bounds_dominate_samples():
    rng = np.random.default_rng(4)
    f = TrigPoly.zero(2)
    for _ in range(6):
        f = f + TrigPoly.wave(2, rng.normal(), rng.integers(-2, 3, 2), 0,
                              "sin" if rng.random() < 0.5 else "cos")
    x = rng.random((500, 2))
    assert np.abs(f.eval(x)).max() <= f.abs_coeff_sum() + 1e-12
    g = np.abs(f.grad(x)).sum(axis=1).max()
    assert g <= f.grad_l1_bound() + 1e-12


def test_active_dims():
    f = TrigPoly.wave(4, 1.0, [1, 0, 0, 0], 0, "cos") + TrigPoly.constant(4, 2.0)
    assert list(f.active_dims()) == [0]


def test_dimension_mismatch_raises():
    a = TrigPoly.wave(2, 1.0, [1, 0], 0, "cos")
    b = TrigPoly.wave(3, 1.0, [1, 0, 0], 0, "cos")
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a.product(b)


# ---------------------------------------------------------------------------
# differential and property tests against the replaced loop and sin-sum code
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None)


def sin_sum(poly, X, t, kind):
    """Oracle: one sin or cos per term, the evaluator before the lattice kernels."""
    X = np.asarray(X, dtype=float)
    ph = X @ (TWO_PI * poly.kvecs.T) + TWO_PI * poly.tfreq * np.asarray(t)[..., None]
    if kind == "eval":
        return np.where(poly.is_sin == SIN, np.sin(ph), np.cos(ph)) @ poly.coeffs
    dvals = np.where(poly.is_sin == SIN, np.cos(ph), -np.sin(ph))
    rates = poly.kvecs if kind == "grad" else poly.tfreq
    return dvals @ ((TWO_PI * poly.coeffs).reshape((-1,) + (1,) * (rates.ndim - 1)) * rates)


def term_scale(poly, kind):
    """sum_j |c_j| |w_j|: the size the rounding error of a term sum is relative to."""
    if kind == "eval":
        return 1.0 + np.abs(poly.coeffs).sum()
    rates = np.abs(poly.kvecs).sum(axis=1) if kind == "grad" else np.abs(poly.tfreq)
    return 1.0 + TWO_PI * (np.abs(poly.coeffs) * rates).sum()


def canonicalize_loop(coeffs, kvecs, tfreq, is_sin):
    """The per-term loop that ``_canonicalize`` vectorizes."""
    n = len(coeffs)
    coeffs, kvecs, tfreq, is_sin = coeffs.copy(), kvecs.copy(), tfreq.copy(), is_sin.copy()
    for i in range(n):
        key = np.concatenate([kvecs[i], [tfreq[i]]])
        nz = np.nonzero(key)[0]
        if len(nz) == 0:
            if is_sin[i] == SIN:
                coeffs[i] = 0.0
            continue
        if key[nz[0]] < 0:
            kvecs[i] = -kvecs[i]
            tfreq[i] = -tfreq[i]
            if is_sin[i] == SIN:
                coeffs[i] = -coeffs[i]
    if not n:
        return coeffs, kvecs, tfreq, is_sin
    keys = np.concatenate([kvecs, tfreq[:, None], is_sin[:, None]], axis=1)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    merged = np.zeros(len(uniq))
    np.add.at(merged, inv, coeffs)
    keep = merged != 0.0
    uniq, merged = uniq[keep], merged[keep]
    d = kvecs.shape[1]
    return merged, uniq[:, :d], uniq[:, d], uniq[:, d + 1]


def product_loop(a, b):
    """The per-pair loop that ``TrigPoly.product`` broadcasts, as raw term arrays."""
    coeffs, kvecs, tfreq, is_sin = [], [], [], []
    for i in range(a.n_terms):
        for j in range(b.n_terms):
            half = 0.5 * a.coeffs[i] * b.coeffs[j]
            kp, km = a.kvecs[i] + b.kvecs[j], a.kvecs[i] - b.kvecs[j]
            mp, mm = a.tfreq[i] + b.tfreq[j], a.tfreq[i] - b.tfreq[j]
            sa, sb = a.is_sin[i], b.is_sin[j]
            if sa == COS and sb == COS:
                pieces = [(half, km, mm, COS), (half, kp, mp, COS)]
            elif sa == SIN and sb == SIN:
                pieces = [(half, km, mm, COS), (-half, kp, mp, COS)]
            elif sa == SIN and sb == COS:
                pieces = [(half, kp, mp, SIN), (half, km, mm, SIN)]
            else:
                pieces = [(half, kp, mp, SIN), (-half, km, mm, SIN)]
            for c, k, m, s in pieces:
                coeffs.append(c)
                kvecs.append(k)
                tfreq.append(m)
                is_sin.append(s)
    return (np.array(coeffs, dtype=float), np.array(kvecs, dtype=np.int64).reshape(-1, a.dim),
            np.array(tfreq, dtype=np.int64), np.array(is_sin, dtype=np.int64))


def arrays(poly):
    return poly.coeffs, poly.kvecs, poly.tfreq, poly.is_sin


def assert_same_terms(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert np.array_equal(g, e)


@st.composite
def term_arrays(draw, dim, kmax, time=True):
    """Raw (coeffs, kvecs, tfreq, is_sin), with negative k and shared waves."""
    n = draw(st.integers(0, 10))
    k = st.lists(st.integers(-kmax, kmax), min_size=dim, max_size=dim)
    m = st.integers(-3, 3) if time else st.just(0)
    terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0, allow_nan=False), k, m,
                                    st.sampled_from([COS, SIN])), min_size=n, max_size=n))
    if terms and draw(st.booleans()):  # the other kind on the same wave
        c, kv, mv, s = terms[0]
        terms.append((draw(st.floats(-2.0, 2.0)), kv, mv, 1 - s))
    if terms and draw(st.booleans()):  # the mirror wave, merging on canonicalization
        c, kv, mv, s = terms[-1]
        terms.append((c, [-x for x in kv], -mv, s))
    return (np.array([t[0] for t in terms], dtype=float),
            np.array([t[1] for t in terms], dtype=np.int64).reshape(-1, dim),
            np.array([t[2] for t in terms], dtype=np.int64),
            np.array([t[3] for t in terms], dtype=np.int64))


@st.composite
def trig_polys(draw, kernel, dim=None, time=True):
    """A TrigPoly on the given side of the kernel crossover."""
    dim = dim or draw(st.integers(1, 4))
    kmax = DENSE_MIN_K - 1 if kernel == "sparse" else draw(
        st.sampled_from([DENSE_MIN_K, DENSE_MIN_K + 5, 48]))
    coeffs, kvecs, tfreq, is_sin = draw(term_arrays(dim, kmax, time))
    if kernel == "dense":  # one term reaching the crossover on a drawn axis
        k = np.zeros(dim, dtype=np.int64)
        k[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([-1, 1])) * kmax
        coeffs = np.append(coeffs, draw(st.floats(0.1, 2.0)))
        kvecs = np.vstack([kvecs, k])
        tfreq, is_sin = np.append(tfreq, 0), np.append(is_sin, draw(st.sampled_from([COS, SIN])))
    poly = TrigPoly(dim, coeffs, kvecs, tfreq, is_sin)
    assert (poly._evaluators()[0].rows is not None) == (kernel == "dense")
    return poly


@st.composite
def points(draw, dim):
    """Lifts shaped (dim,), (B, dim) or (a, b, dim), with a scalar or pointwise time."""
    shape = draw(st.sampled_from([(), (5,), (3, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.uniform(-1.0, 2.0, shape + (dim,))
    t = rng.uniform(-1.0, 2.0, shape) if draw(st.booleans()) else float(rng.uniform(-1.0, 2.0))
    return X, t


@PROPERTY
@given(data=st.data())
def test_derivative_is_the_gradient_along_its_direction(data):
    poly = data.draw(trig_polys("sparse"))
    v = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=poly.dim, max_size=poly.dim)))
    X, t = data.draw(points(poly.dim))
    err = np.abs(poly.derivative(v).eval(X, t) - poly.grad(X, t) @ v).max()
    assert err <= 1e-12 * term_scale(poly, "grad") * (1.0 + np.abs(v).sum())
    # partial(j), now the axis case, is bit for bit the per-axis formula it replaced
    j = data.draw(st.integers(0, poly.dim - 1))
    sign = np.where(poly.is_sin == SIN, 1.0, -1.0)
    axis = TrigPoly(poly.dim, poly.coeffs * TWO_PI * poly.kvecs[:, j] * sign, poly.kvecs,
                    poly.tfreq, 1 - poly.is_sin)
    assert_same_terms(arrays(poly.partial(j)), arrays(axis))


@pytest.mark.parametrize("kernel", ["sparse", "dense"])
@PROPERTY
@given(data=st.data())
def test_evaluator_matches_sin_sum(kernel, data):
    poly = data.draw(trig_polys(kernel))
    X, t = data.draw(points(poly.dim))
    for kind in ("eval", "grad"):
        got = getattr(poly, kind)(X, t)
        expected = sin_sum(poly, X, t, kind)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * term_scale(poly, kind)


@pytest.mark.parametrize("poly, value", [(TrigPoly.zero(3), 0.0),
                                         (TrigPoly.constant(3, -1.5), -1.5)],
                         ids=["zero", "constant"])
def test_evaluator_zero_and_constant(poly, value):
    for shape in [(), (5,), (3, 4)]:
        X = np.full(shape + (3,), 0.3)
        assert np.array_equal(poly.eval(X, 0.2), np.full(shape, value))
        assert np.array_equal(poly.grad(X, 0.2), np.zeros(shape + (3,)))


def test_evaluator_built_once():
    f = TrigPoly.wave(1, 1.0, [DENSE_MIN_K], 0, "cos")
    first = f._evaluators()
    f.eval(np.zeros((2, 1)))
    f.grad(np.zeros((2, 1)))
    assert f._evaluators() is first


@PROPERTY
@given(data=st.data())
def test_canonicalize_matches_loop(data):
    dim = data.draw(st.integers(1, 4))
    raw = data.draw(term_arrays(dim, 3))
    assert_same_terms(_canonicalize(*raw), canonicalize_loop(*raw))


@PROPERTY
@given(data=st.data())
def test_product_matches_loop(data):
    dim = data.draw(st.integers(1, 3))
    a = TrigPoly(dim, *data.draw(term_arrays(dim, 3)))
    b = TrigPoly(dim, *data.draw(term_arrays(dim, 3)))
    prod = a.product(b)
    if a.n_terms and b.n_terms:
        assert_same_terms(arrays(prod), canonicalize_loop(*product_loop(a, b)))
    else:
        assert prod.n_terms == 0
    X, t = data.draw(points(dim))
    assert np.allclose(prod.eval(X, t), a.eval(X, t) * b.eval(X, t), atol=1e-12)


@pytest.mark.parametrize("kernel", ["sparse", "dense"])
@PROPERTY
@given(data=st.data())
def test_certificates_dominate_denser_resample(kernel, data):
    dim = data.draw(st.integers(1, 2))
    poly = data.draw(trig_polys(kernel, dim, time=dim == 1))
    grid = 32
    lo, hi, pad = poly.certified_bounds(grid)
    slack = 1e-12 * term_scale(poly, "eval")
    axes = [np.arange(4 * grid) / (4 * grid)] * dim
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    for t in np.arange(4 * grid) / (4 * grid) if poly.is_time_dependent else [0.0]:
        values = sin_sum(poly, X, t, "eval")
        # the sup certificate (the bracket bound's) and the range certificate (the r-bound's)
        assert max(hi, -lo) + pad >= np.abs(values).max(initial=0.0) - slack
        assert lo - pad - slack <= values.min() and values.max() <= hi + pad + slack

    u = data.draw(trig_polys(kernel, 1, time=False))
    lo, hi, pad = u.partial(0).certified_bounds(grid)  # the sharpness slope certificate
    t = (np.arange(4 * grid) / (4 * grid))[:, None]
    assert max(hi, -lo) + pad >= np.abs(sin_sum(u, t, 0.0, "grad")).max() - 1e-12 * term_scale(
        u, "grad")


def test_certified_bounds_grid_limits():
    f = TrigPoly.wave(2, 0.5, [1, 0], 0, "cos") + TrigPoly.wave(2, 0.25, [0, 3], 1, "sin")
    assert TrigPoly.zero(2).certified_bounds(16) == (0.0, 0.0, 0.0)
    for grid in (1, 2, 5):  # the pad holds on any grid, however coarse
        lo, hi, pad = f.certified_bounds(grid)
        assert lo - pad <= -0.75 and 0.75 <= hi + pad  # f spans [-0.75, 0.75]
    assert 512 ** 3 > MAX_GRID_POINTS
    with pytest.raises(ValueError):  # 3 active axes (p1, q1, t)
        f.certified_bounds(512)
