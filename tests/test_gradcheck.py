"""The finite-difference checker itself, validated on closed-form losses."""

import numpy as np
import pytest

from difftt import autodiff as ad
from difftt.gradcheck import finite_difference_check
from difftt.params import Parameter


def test_quadratic_passes():
    p = Parameter("w", np.linspace(-1.0, 1.0, 20))

    def loss():
        return ad.sum_all(ad.mul(p.tensor, p.tensor))

    err = finite_difference_check(loss, [p], n_coords=40)
    assert err < 1e-8


def test_detects_wrong_gradient():
    p = Parameter("w", np.ones(5))

    def loss():
        # deliberately bypass the tape for half the computation
        out = ad.sum_all(p.tensor)
        out.data = out.data * 3.0  # value changed, gradient not
        return out

    err = finite_difference_check(loss, [p], n_coords=10)
    assert err > 0.5


def test_frozen_excluded_by_default():
    live = Parameter("a", np.ones(3))
    frozen = Parameter("b", np.ones(3), frozen=True)

    def loss():
        return ad.add(ad.sum_all(ad.mul(live.tensor, live.tensor)),
                      ad.sum_all(ad.mul(frozen.tensor, frozen.tensor)))

    # the loss depends on frozen b, which gets no analytic gradient: a sampled
    # coordinate of b would compare 0 with the numeric 2 and fail the check
    err = finite_difference_check(loss, [live, frozen], n_coords=30)
    assert err < 1e-8


def test_no_candidates_raises():
    frozen = Parameter("b", np.ones(3), frozen=True)
    with pytest.raises(ValueError):
        finite_difference_check(lambda: ad.sum_all(frozen.tensor), [frozen])


def test_same_name_parameters_checked_independently():
    # two models can share parameter names; the checker must not mix them up
    a = Parameter("w", np.full(4, 2.0))
    b = Parameter("w", np.full(4, 5.0))

    def loss():
        return ad.sum_all(ad.mul(a.tensor, ad.mul(b.tensor, b.tensor)))

    err = finite_difference_check(loss, [a, b], n_coords=40)
    assert err < 1e-7
