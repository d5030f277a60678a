"""Training-fold mean imputation: nanmean's values, without its warning."""

from __future__ import annotations

import warnings

import numpy as np

from regrow.prediction import _impute


def test_all_nan_column_imputes_zero_without_a_warning():
    X_train = np.array([[1.0, np.nan, 0.1], [2.0, np.nan, np.nan], [4.0, np.nan, 0.7]])
    X_test = np.array([[np.nan, np.nan, np.nan], [3.0, 5.0, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train, test = _impute(X_train, X_test)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        means = np.nanmean(X_train, axis=0)
    means[1] = 0.0
    assert train.tobytes() == np.where(np.isnan(X_train), means, X_train).tobytes()
    assert test.tobytes() == np.where(np.isnan(X_test), means, X_test).tobytes()


def test_means_are_nanmean_bit_for_bit():
    rng = np.random.default_rng(4)
    X_train = rng.normal(size=(97, 13)) * 10.0 ** rng.integers(-3, 4, size=13)
    X_train[rng.random(X_train.shape) < 0.3] = np.nan
    X_test = np.full((1, 13), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, test = _impute(X_train, X_test)
    assert test[0].tobytes() == np.nanmean(X_train, axis=0).tobytes()
