import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundlm.gmm import MAX_ITER, REL_TOL, VARIANCE_FLOOR, GmmModel, _kmeanspp, fit_gmm


def blob_data(rng, centers, n_per=50, sigma=0.1):
    parts = [c + sigma * rng.normal(size=(n_per, len(c))) for c in centers]
    return np.concatenate(parts, axis=0)


def test_kappa_one_recovers_sample_mean(rng):
    pts = rng.normal(size=(40, 3))
    model = fit_gmm(pts, 1, seed=0)
    assert model.kappa == 1
    np.testing.assert_allclose(model.means[0], pts.mean(axis=0), atol=1e-8)
    np.testing.assert_allclose(model.weights, [1.0])


def test_two_blob_recovery(rng):
    truth = np.array([[0.0, 0.0], [10.0, 10.0]])
    pts = blob_data(rng, truth)
    model = fit_gmm(pts, 2, seed=3)
    # match recovered means to truth greedily
    d0 = np.linalg.norm(model.means - truth[0], axis=1)
    d1 = np.linalg.norm(model.means - truth[1], axis=1)
    assert min(d0) < 0.2 and min(d1) < 0.2
    assert np.argmin(d0) != np.argmin(d1)


def test_kappa_capped_at_n():
    pts = np.array([[0.0], [1.0], [2.0]])
    model = fit_gmm(pts, 8, seed=0)
    assert model.kappa == 3


def test_loglik_monotone_non_decreasing(rng):
    pts = rng.normal(size=(60, 4)) * np.array([1.0, 3.0, 0.5, 2.0])
    for seed in range(5):
        model = fit_gmm(pts, 3, seed=seed)
        hist = np.asarray(model.loglik_history)
        assert np.all(np.diff(hist) >= -1e-9)


def test_determinism_bit_identical(rng):
    pts = rng.normal(size=(50, 3))
    a = fit_gmm(pts, 4, seed=11)
    b = fit_gmm(pts, 4, seed=11)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)
    assert np.array_equal(a.weights, b.weights)
    assert a.loglik == b.loglik and a.n_iter == b.n_iter


def test_seed_accepts_list():
    pts = np.arange(12.0).reshape(6, 2)
    a = fit_gmm(pts, 2, seed=[7, 3])
    b = fit_gmm(pts, 2, seed=[7, 3])
    assert np.array_equal(a.means, b.means)


def test_input_validation():
    with pytest.raises(ValueError):
        fit_gmm(np.ones(5), 2, seed=0)  # 1-D, not n x d
    with pytest.raises(ValueError):
        fit_gmm(np.empty((0, 3)), 1, seed=0)
    with pytest.raises(ValueError):
        fit_gmm(np.ones((4, 2)), 0, seed=0)


def test_duplicate_points_survive_kmeanspp():
    pts = np.zeros((10, 2))
    pts[5:] = 1.0
    model = fit_gmm(pts, 2, seed=0)
    assert model.kappa == 2
    assert np.isfinite(model.loglik)


def test_weights_sum_to_one(rng):
    pts = rng.normal(size=(80, 2))
    model = fit_gmm(pts, 5, seed=2)
    assert abs(model.weights.sum() - 1.0) < 1e-9
    assert np.all(model.variances >= 1e-6 - 1e-12)


# -- stacked fits against the one-fit EM ----------------------------------------


def reference_estep(points, means, variances, log_weights):
    diff = points[:, None, :] - means[None, :, :]
    quad = (diff * diff / variances[None, :, :]).sum(axis=2)
    logdet = np.log(variances).sum(axis=1)
    d = points.shape[1]
    logp = log_weights[None, :] - 0.5 * (quad + logdet[None, :] + d * math.log(2.0 * math.pi))
    top = logp.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logp - top).sum(axis=1))
    resp = np.exp(logp - lse[:, None])
    return resp, float(lse.sum())


def reference_kmeanspp(points, k, rng):
    """The k-means++ start as it was before the forced last pick went
    without a draw: every pick after the first is a draw."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0:
            remaining = [i for i in range(n) if i not in chosen]
            nxt = int(rng.choice(remaining))
        else:
            nxt = int(rng.choice(n, p=d2 / total))
            if nxt in chosen:
                remaining = [i for i in range(n) if i not in chosen]
                nxt = int(rng.choice(remaining))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return points[chosen].copy()


@st.composite
def start_cases(draw):
    """n of 1-6 points and k <= n; a grid, a pool of rows or all points
    equal make points coincide, so every branch of the start is reached."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    shape = draw(st.sampled_from(["plain", "grid", "pool", "equal"]))
    if shape == "grid":
        pts = np.round(pts)
    elif shape == "pool":
        pts = pts[rng.integers(draw(st.integers(1, n)), size=n)]
    elif shape == "equal":
        pts = np.repeat(pts[:1], n, axis=0)
    return pts, k


@given(start_cases(), st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_start_picks_what_the_drawn_start_picked(case, seeds):
    """One stack start over a set per seed equals the drawn one-set start of
    each set, whatever the other sets of the stack draw."""
    pts, k = case
    stack = np.stack([pts * (1 + j % 3) for j in range(len(seeds))])
    got = _kmeanspp(stack, k, [[s, 1] for s in seeds])
    assert got.shape == (len(seeds), k, pts.shape[1])
    for start, points, s in zip(got, stack, seeds):
        want = reference_kmeanspp(points, k, np.random.default_rng([s, 1]))
        assert start.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_start_on_nan_points_still_raises(n):
    pts = np.arange(2.0 * n).reshape(n, 2)
    pts[-1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        reference_kmeanspp(pts, n, np.random.default_rng(0))
    with pytest.raises(ValueError, match="NaN"):
        _kmeanspp(np.stack([pts + 1, pts]), n, [1, 0])
    with pytest.raises(ValueError, match="NaN"):
        fit_gmm(pts, n, seed=0)


def reference_fit(points, kappa, seed):
    """The one-set EM loop ``fit_gmm`` ran before it fit stacks."""
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    k = min(kappa, n)
    rng = np.random.default_rng(seed)
    means = reference_kmeanspp(pts, k, rng)
    global_var = pts.var(axis=0)
    variances = np.maximum(np.tile(global_var, (k, 1)), VARIANCE_FLOOR)
    weights = np.full(k, 1.0 / k)
    history = []
    prev = -np.inf
    it = 0
    for it in range(1, MAX_ITER + 1):
        resp, loglik = reference_estep(pts, means, variances, np.log(weights))
        history.append(float(loglik))
        nk = resp.sum(axis=0)
        weights = nk / n
        safe_nk = np.maximum(nk, 1e-12)
        means = (resp.T @ pts) / safe_nk[:, None]
        second = (resp.T @ (pts * pts)) / safe_nk[:, None]
        variances = np.maximum(second - means * means, VARIANCE_FLOOR)
        if np.isfinite(prev) and abs(loglik - prev) < REL_TOL * max(abs(prev), 1.0):
            prev = loglik
            break
        prev = loglik
    assert np.isfinite(prev)
    return GmmModel(kappa=k, means=means, variances=variances, weights=weights,
                    loglik=float(prev), loglik_history=history, n_iter=it)


def assert_bitwise(got, want):
    assert got.kappa == want.kappa
    for name in ("means", "variances", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.loglik == want.loglik
    assert got.loglik_history == want.loglik_history
    assert got.n_iter == want.n_iter


@st.composite
def point_stacks(draw):
    """(B, n, d) stacks with kappa 1-8, so kappa exceeds n at times; a
    coarse grid or a small pool of rows makes points coincide, which sends
    k-means++ to its fallback."""
    b, n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 70))
    kappa = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.normal(size=(b, n, d)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    shape = draw(st.sampled_from(["plain", "grid", "pool"]))
    if shape == "grid":
        pts = np.round(pts)
    elif shape == "pool":
        pts = pts[:, rng.integers(draw(st.integers(1, n)), size=n)]
    seeds = [[int(s) for s in rng.integers(2 ** 32, size=2)] for _ in range(b)]
    return pts, kappa, seeds


@given(point_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_fit_equals_one_fit_per_set(case):
    pts, kappa, seeds = case
    fits = fit_gmm(pts, kappa, seed=seeds)
    assert len(fits) == len(seeds)
    for p, s, got in zip(pts, seeds, fits):
        # the stack's layout (a pool makes it non-contiguous) does not matter;
        # the one-set fit is given the C-order points every caller passes
        assert_bitwise(got, reference_fit(np.ascontiguousarray(p), kappa, s))


def test_stack_members_leave_at_their_own_iteration(rng):
    pts = rng.normal(size=(8, 6, 5))
    pts[3] = 0.5                       # all points coincide: k-means++ fallback
    pts[5, 3:] = pts[5, :3]            # pairs of coincident points
    seeds = [[4, j] for j in range(8)]
    fits = fit_gmm(pts, 3, seed=seeds)
    assert len({f.n_iter for f in fits}) > 2
    for p, s, got in zip(pts, seeds, fits):
        assert_bitwise(got, reference_fit(p, 3, s))
        assert_bitwise(fit_gmm(p, 3, seed=s), got)


def test_stack_needs_one_seed_per_set():
    with pytest.raises(ValueError, match="seeds"):
        fit_gmm(np.ones((3, 4, 2)), 2, seed=[0, 1])
    with pytest.raises(ValueError):
        fit_gmm(np.ones((2, 3, 4, 2)), 2, seed=[0, 1])
