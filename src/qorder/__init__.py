"""qorder: transform-order and aging-class decisions for quantile models."""

from .errors import (
    DomainError,
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
from .shape import Mode, ShapeReport, find_shape, shape_class, tukey_unimodal_region
from .limits import LimitValue, limit_at
from .deltas import (
    centered_delta,
    delta,
    delta_dmrl,
    delta_ps,
    delta_qmit,
    eps,
    ratio_qd,
)
from .oracle import GridVerdict, order_oracle, quadrature
from .orders import (
    Certificate,
    Condition,
    OrderVerdict,
    PairContext,
    check_convex,
    check_dmrl,
    check_ps,
    check_qmit,
    check_star,
    compare_all,
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
