"""Multidimensional parametric regression by minimizing the log-determinant
of the empirical error covariance matrix.

Library layers: ``linalg`` (SPD kernel), ``model`` (regression families
with analytic parameter derivatives), ``cost`` (MSE / GLS / log-det costs
with gradient and Hessian), ``optimize`` (multi-start BFGS), ``estimate``
(OLS, GLS, iterated FGLS, the direct log-det estimator, information
matrix), ``inference`` (nested chi-square testing and Monte Carlo null
calibration), ``prune`` (stepwise weight elimination), ``simulate``
(data generation and the replication harness) and ``cli``.
"""

from .data import Dataset
from .estimate import CostKind, FitResult, fisher_info, fit_fgls, fit_gls, fit_logdet, fit_ols
from .inference import TestReport, chi2_sf, mc_null_calibrate, sn_statistic, tn_test
from .linalg import SpdMatrix, logdet, spd_from_symmetric
from .model import ModelKind, ModelSpec, ParamVector, load_model, save_model
from .optimize import OptimOptions, OptimOutcome, bfgs_minimize, multi_start
from .prune import PruneTrace, bic_penalty, ssm_prune
from .simulate import SimMode, SimRecipe, gen_series, run_mc, sample_gaussian

__version__ = "0.1.0"

__all__ = [
    "CostKind",
    "Dataset",
    "FitResult",
    "ModelKind",
    "ModelSpec",
    "OptimOptions",
    "OptimOutcome",
    "ParamVector",
    "PruneTrace",
    "SimMode",
    "SimRecipe",
    "SpdMatrix",
    "TestReport",
    "bfgs_minimize",
    "bic_penalty",
    "chi2_sf",
    "fisher_info",
    "fit_fgls",
    "fit_gls",
    "fit_logdet",
    "fit_ols",
    "gen_series",
    "load_model",
    "logdet",
    "mc_null_calibrate",
    "multi_start",
    "run_mc",
    "sample_gaussian",
    "save_model",
    "sn_statistic",
    "spd_from_symmetric",
    "ssm_prune",
    "tn_test",
]
