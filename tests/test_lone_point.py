"""A lone point is the block of one.

u, its gradient, Hessian and fourth difference, and a variable order,
evaluated at a point on its own give the repr they give that point inside
any block: NumPy's scalar arithmetic may round differently from its arrays',
so a lone point must be read as an array of one row.
"""

import numpy as np
import pytest

from jumpform import AlphaFunction, Box, GridFunction

SIZES = (1, 2, 3, 7, 257)


def _cubic():
    """(1 - x^2)^3 on [-1, 1], a user closure: ** rounds some points
    differently on a NumPy scalar than inside an array."""

    def value(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, (1.0 - t * t) ** 3, 0.0)

    def grad(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, -6.0 * t * (1.0 - t * t) ** 2, 0.0)[..., None]

    def hess(x):
        t = x[..., 0]
        return np.where(np.abs(t) < 1.0, -6.0 * (1.0 - t * t) ** 2 + 24.0 * t * t * (1.0 - t * t), 0.0)[..., None, None]

    return GridFunction.analytic(1, value, grad, hess, box=Box((-1.0,), (1.0,)), support_radius=1.0)


def _sampled(dim):
    rng = np.random.default_rng(5)
    vals = np.zeros((9,) * dim)
    vals[(slice(1, -1),) * dim] = rng.uniform(-2.0, 2.0, size=(7,) * dim)
    return GridFunction.sampled(Box((-1.0,) * dim, (1.0,) * dim), vals)


FUNCTIONS = {
    "bump-1d": lambda: GridFunction.bump((0.1,), 1.0, 1.3),
    "bump-2d": lambda: GridFunction.bump((0.1, -0.2), 1.0, 0.9),
    "wave": lambda: GridFunction.wave(1.7, "cos"),
    "sampled-1d": lambda: _sampled(1),
    "sampled-2d": lambda: _sampled(2),
    "analytic-cubic": _cubic,
}


def _points(dim):
    """257 points in [-1.2, 1.2]^dim, with -0.0 and +0.0 coordinates among them."""
    X = np.random.default_rng(dim).uniform(-1.2, 1.2, size=(257, dim))
    if dim == 1:
        X[:3, 0] = [-0.0, 0.0, -0.0]
    else:
        X[:4] = [[-0.0, 0.3], [0.2, -0.0], [-0.0, -0.0], [0.0, -0.0]]
    return X


def _rows(fn, X, size):
    """fn on consecutive blocks of size rows of X, one repr per row."""
    out = []
    for lo in range(0, len(X), size):
        out += [repr(np.asarray(r).tolist()) for r in fn(X[lo : lo + size])]
    return out


def _alone(fn, X):
    return [repr(np.asarray(fn(x)).tolist()) for x in X]


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_u_and_its_derivatives_at_a_lone_point_are_those_of_any_block(name):
    u = FUNCTIONS[name]()
    X = _points(u.dim)
    assert np.signbit(X).any() and not np.all(X)  # -0.0 coordinates are there
    fourth = lambda B: u.fourth_along(B, hess_x=u.hess(B))
    for fn in (u, u.grad, u.hess, u.fourth_along, fourth):
        alone = _alone(fn, X)
        for size in SIZES:
            assert _rows(fn, X, size) == alone, (fn, size)
    # the shapes of a lone point's readings
    x = X[5]
    assert np.shape(u(x)) == () and u.grad(x).shape == (u.dim,) and u.hess(x).shape == (u.dim, u.dim)
    assert isinstance(u.fourth_along(x), float) and u.fourth_along(X[:4]).shape == (4,)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_a_signed_zero_row_evaluates_its_own_centre_hessian(name):
    # the stencil centre x + 0.0 of a -0.0 coordinate is +0.0, so the Hessian
    # handed in for x is not used there
    u = FUNCTIONS[name]()
    X = _points(u.dim)[:6]
    wrong = np.full((len(X), u.dim, u.dim), 1e3)
    got = u.fourth_along(X, hess_x=wrong)
    signed = (np.signbit(X) & (X == 0.0)).any(axis=1)
    assert signed.any() and not signed.all()
    assert [repr(v) for v in got[signed].tolist()] == [repr(v) for v in u.fourth_along(X[signed]).tolist()]
    assert not np.any(got[~signed] == u.fourth_along(X[~signed]))


def test_the_order_at_a_lone_point_is_that_of_any_block():
    # the README order, and a 2D order
    orders = (
        AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]), 0.6, 1.0),
        AlphaFunction(lambda x: 0.8 + 0.2 * np.sin(x[..., 0]) * np.cos(x[..., 1]), 0.6, 1.0, dim=2),
    )
    for af in orders:
        X = 3.0 * _points(af.dim)
        alone = _alone(af, X)
        for size in SIZES:
            assert _rows(af, X, size) == alone, size
        assert np.shape(af(X[5])) == ()
