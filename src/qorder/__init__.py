"""qorder: transform-order and aging-class decisions for quantile models."""

from .errors import (
    DomainError,
    HypothesisError,
    InternalConsistencyError,
    ModelIntegrityError,
    NonFiniteMeanError,
    ParseError,
    QorderError,
    QuadratureError,
    TooOscillatoryError,
    ValidationError,
)
from .models import Govindarajulu, QuantileModel, TukeyGeneralized, UnitExponential
from .shape import GridConfig, Mode, Segment, ShapeReport, find_shape, ratio_qd, tukey_unimodal_region
from .limits import LimitValue, limit_at
from .deltas import (
    centered_delta,
    delta,
    delta_dmrl,
    delta_ps,
    delta_qmit,
    eps,
    mit_quantile,
    mrl_quantile,
)
from .oracle import GridVerdict, grid_monotone, order_oracle, quadrature
from .orders import (
    Certificate,
    Condition,
    OrderVerdict,
    check_convex,
    check_dmrl,
    check_ps,
    check_qmit,
    check_star,
    compare_all,
    predict_quantile_ratio_shape,
)
from .aging import (
    AgingReport,
    aging_report,
    classify_hazard,
    classify_ifra,
    classify_ihrwa,
    classify_mrl,
    hazard_quantile,
)
from .empirical import SampleSet, convexity_scan, empirical_quantile, load_samples, qq_transform
from .dsl import as_quantile_model, evaluate, parse, render

__version__ = "0.1.0"
