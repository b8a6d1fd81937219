"""One case per error the package raises for a bad argument or input, with
its exception type and exact message."""

import json

import numpy as np
import pytest

from specthresh import (
    DataError,
    ModelError,
    NumericalError,
    ParameterError,
    ThresholdOperator,
    TimeSeriesMatrix,
    VarmaModel,
    autocov,
    block_varma_model,
    l_n,
    omega_n,
    rmise,
    simulate,
    theoretical_threshold,
    threshold_estimate,
    tuned_estimates,
)
from specthresh.bench import BenchmarkSpec
from specthresh.estimator import canonical_method
from specthresh.fileio import model_from_dict, read_estimate, write_estimate
from specthresh.model import block_transition

X = TimeSeriesMatrix(np.random.default_rng(7).standard_normal((16, 3)))
LASSO = ThresholdOperator("lasso")


def spec(**fields):
    return BenchmarkSpec(**{"family": "vma", "p_list": (3,), "n_list": (64,),
                            "methods": ("lasso",), **fields})


CALLS = {
    "ar-shape": (lambda: VarmaModel(dim=2, ar_coeffs=(np.eye(3),)),
                 ModelError, "ar_coeffs[0] has shape (3, 3), expected (2, 2)"),
    "ma-non-finite": (lambda: VarmaModel(dim=2, ma_coeffs=(np.eye(2), [[np.nan, 0], [0, 0]])),
                      ModelError, "ma_coeffs[1] contains non-finite entries"),
    "dim": (lambda: VarmaModel(dim=0), ModelError, "dim must be a positive integer"),
    "cov-shape": (lambda: VarmaModel(dim=2, noise_cov=np.eye(3)),
                  ModelError, "noise_cov has shape (3, 3), expected (2, 2)"),
    "cov-asymmetric": (lambda: VarmaModel(dim=2, noise_cov=[[1.0, 0.5], [0.0, 1.0]]),
                       ModelError, "noise_cov must be symmetric"),
    "cov-indefinite": (lambda: VarmaModel(dim=2, noise_cov=[[1.0, 2.0], [2.0, 1.0]]),
                       ModelError, "noise_cov must be positive semidefinite"),
    "noise-family": (lambda: VarmaModel(dim=2, noise_family="cauchy"),
                     ModelError, "unknown noise_family 'cauchy'"),
    "data-1d": (lambda: TimeSeriesMatrix(np.zeros(5)), ParameterError, "data must be a 2-d array"),
    "data-one-row": (lambda: TimeSeriesMatrix(np.zeros((1, 2))),
                     ParameterError, "need at least 2 observations"),
    "data-inf": (lambda: TimeSeriesMatrix([[0.0, np.inf], [0.0, 0.0]]),
                 ParameterError, "data contains non-finite entries"),
    "channel-count": (lambda: TimeSeriesMatrix(np.zeros((4, 2)), channel_names=("a",)),
                      ParameterError, "channel_names length must match column count"),
    "cov-non-finite": (lambda: VarmaModel(dim=2, noise_cov=[[1.0, 0.0], [0.0, np.inf]]),
                       ModelError, "noise_cov contains non-finite entries"),
    "df-nan": (lambda: VarmaModel(dim=2, noise_family="student_t", noise_df=np.nan),
               ModelError, "noise_df must be finite"),
    "df-inf": (lambda: VarmaModel(dim=2, noise_family="student_t", noise_df=np.inf),
               ModelError, "noise_df must be finite"),
    "simulate-n": (lambda: simulate(block_varma_model(3, "vma"), 1),
                   ParameterError, "n must be at least 2"),
    "simulate-burn-in": (lambda: simulate(block_varma_model(3, "vma"), 8, burn_in=-1),
                         ParameterError, "burn_in must be nonnegative"),
    "autocov-lag": (lambda: autocov(block_varma_model(3, "var"), -1),
                    ParameterError, "l_max must be nonnegative"),
    "lags-shape": (lambda: omega_n(np.zeros((2, 2, 3)), 1),
                   ParameterError, "gammas must have shape (l_max + 1, p, p)"),
    "omega-n-lag": (lambda: omega_n(np.zeros((2, 3, 3)), -1),
                    ParameterError, "n must be nonnegative"),
    "l-n-lag": (lambda: l_n(np.zeros((2, 3, 3)), -1), ParameterError, "n must be nonnegative"),
    "omega-n-lags-short": (lambda: omega_n(np.zeros((2, 3, 3)), 2),
                           ParameterError, "need autocovariances up to lag 2, have 1"),
    "theory-nan": (lambda: theoretical_threshold(np.nan, 0.0, 0.0, n=10, m=2, p=4),
                   ParameterError, "inputs must be finite"),
    "theory-inf": (lambda: theoretical_threshold(1.0, np.inf, 0.0, n=10, m=2, p=4),
                   ParameterError, "inputs must be finite"),
    "theory-negative": (lambda: theoretical_threshold(1.0, 0.0, -1.0, n=10, m=2, p=4),
                        ParameterError, "inputs must be nonnegative"),
    "theory-n": (lambda: theoretical_threshold(1.0, 0.0, 0.0, n=0, m=2, p=4),
                 ParameterError, "n must be at least 1"),
    "theory-m": (lambda: theoretical_threshold(1.0, 0.0, 0.0, n=10, m=0, p=4),
                 ParameterError, "m must be at least 1"),
    "theory-p": (lambda: theoretical_threshold(1.0, 0.0, 0.0, n=10, m=2, p=0),
                 ParameterError, "p must be at least 1"),
    "block-p": (lambda: block_transition(4),
                ParameterError, "block transition requires p divisible by 3"),
    "model-family": (lambda: block_varma_model(3, "arma"),
                     ParameterError, "unknown model family 'arma'"),
    "eta": (lambda: ThresholdOperator("adaptive_lasso", eta=0.0),
            ParameterError, "eta must be positive"),
    "eta-nan": (lambda: ThresholdOperator("adaptive_lasso", eta=np.nan),
                ParameterError, "eta must be finite"),
    "eta-inf": (lambda: ThresholdOperator("adaptive_lasso", eta=np.inf),
                ParameterError, "eta must be finite"),
    "eta-minus-inf": (lambda: ThresholdOperator("adaptive_lasso", eta=-np.inf),
                      ParameterError, "eta must be finite"),
    "span-wide": (lambda: tuned_estimates(X, 8, ["smoothed"]),
                  ParameterError, "invalid half-span m=8 for n=16"),
    "span-negative": (lambda: tuned_estimates(X, -1, ["smoothed"]),
                      ParameterError, "invalid half-span m=-1 for n=16"),
    "zero-truth": (lambda: rmise(tuned_estimates(X, 2, ["smoothed"])[0], np.zeros((9, 3, 3))),
                   ParameterError, "truth is identically zero"),
    "grid-size": (lambda: tuned_estimates(X, 2, [LASSO], grid_size=0),
                  ParameterError, "grid size must be positive"),
    "n-splits": (lambda: tuned_estimates(X, 2, [LASSO], n_splits=0),
                 ParameterError, "n_splits must be at least 1"),
    "threshold-method": (lambda: threshold_estimate(X, 2, "smoothed", {j: 0.1 for j in range(9)}),
                         ParameterError, "'smoothed' is not a threshold method"),
    "method": (lambda: canonical_method("ridge"), ParameterError, "unknown method 'ridge'"),
    # JSON true and false are not numbers, though float() reads them as 1 and 0
    "ma-bool": (lambda: model_from_dict({"p": 1, "ma": [[[True]]]}),
                DataError, "bad model specification: ma must hold numbers, got True"),
    "cov-bool": (lambda: model_from_dict({"p": 1, "noise": {"cov": [[False]]}}),
                 DataError, "bad model specification: cov must hold numbers, got False"),
    "df-bool": (lambda: model_from_dict({"p": 1, "noise": {"df": True}}),
                DataError, "bad model specification: df must hold numbers, got True"),
    # nor are strings, though float() and numpy parse "0.5" as a number
    "ar-string": (lambda: model_from_dict({"p": 1, "ar": [[["0.5"]]]}),
                  DataError, "bad model specification: ar must hold numbers, got '0.5'"),
    "ma-string": (lambda: model_from_dict({"p": 1, "ma": [[[0.1]], [["0.5"]]]}),
                  DataError, "bad model specification: ma must hold numbers, got '0.5'"),
    "cov-string": (lambda: model_from_dict({"p": 1, "noise": {"cov": [["2"]]}}),
                   DataError, "bad model specification: cov must hold numbers, got '2'"),
    "df-string": (lambda: model_from_dict({"p": 1, "noise": {"family": "student_t", "df": "7"}}),
                  DataError, "bad model specification: df must hold numbers, got '7'"),
    "spec-family": (lambda: spec(family="arma"), ParameterError, "unknown family 'arma'"),
    "spec-replicates": (lambda: spec(replicates=0),
                        ParameterError, "replicates must be at least 1"),
    # series scaled until the window averages, the shrinkage weights or the
    # split risks overflow
    "overflow-diagonal": (lambda: tuned_estimates(TimeSeriesMatrix(1e154 * X.data), 2,
                                                  ["smoothed"]),
                          NumericalError,
                          "non-finite spectral diagonal: the series is badly scaled"),
    "overflow-shrinkage": (lambda: tuned_estimates(TimeSeriesMatrix(1e80 * X.data), 2,
                                                   ["shrinkage"]),
                           NumericalError,
                           "non-finite shrinkage weight: the series is badly scaled"),
    "overflow-risk": (lambda: tuned_estimates(TimeSeriesMatrix(1e78 * X.data), 2, [LASSO]),
                      NumericalError,
                      "non-finite split risk: the series is badly scaled"),
}


@pytest.mark.parametrize("name", CALLS)
def test_call_raises(name):
    call, kind, message = CALLS[name]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == message


def _entry(obj, j):
    """The entry of frequency index j."""
    return next(entry for entry in obj["frequencies"] if entry["j"] == j)


def _ragged(obj):
    entry = _entry(obj, 1)
    entry["re"][0] = entry["re"][0][:2]


def _threshold_missing(obj):
    del _entry(obj, 3)["lambda"]


def _channel_count(obj):
    obj["channels"] = ["a", "b"]


def _bool_lambda(obj):
    _entry(obj, 1)["lambda"] = True


def _bool_eta(obj):
    obj.update(method="adaptive_lasso", eta=True)


def _bool_matrix(obj):
    _entry(obj, 3)["im"] = [[False] * 3] * 3


@pytest.mark.parametrize("mutate, message", [
    (_ragged, "malformed estimate file (setting an array element with a sequence"),
    (_threshold_missing, "malformed estimate file (threshold missing or extra at j = 3)"),
    (_channel_count, "malformed estimate file (2 channel names for p = 3)"),
    (_bool_lambda, "malformed estimate file (lambda must hold numbers, got True)"),
    (_bool_eta, "malformed estimate file (eta must hold numbers, got True)"),
    (_bool_matrix, "malformed estimate file (im must hold numbers, got False)"),
], ids=["ragged-matrix", "threshold-missing", "channel-count", "lambda-bool", "eta-bool",
        "matrix-bool"])
def test_estimate_file_raises(tmp_path, mutate, message):
    path = tmp_path / "est.json"
    write_estimate(threshold_estimate(X, 2, LASSO, {j: 0.1 for j in range(9)}), path)
    obj = json.loads(path.read_text())
    assert sorted(entry["j"] for entry in obj["frequencies"]) == list(range(-7, 9))
    mutate(obj)
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError) as err:
        read_estimate(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_singular_noise_cov_simulates():
    # Cholesky rejects a rank-one covariance; the eigendecomposition factors it
    cov = np.ones((2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    x = simulate(VarmaModel(dim=2, noise_cov=cov), 64, seed=3)
    assert np.all(np.isfinite(x.data)) and np.std(x.data[:, 0]) > 0
    assert np.allclose(x.data[:, 0], x.data[:, 1], rtol=1e-12, atol=0)
