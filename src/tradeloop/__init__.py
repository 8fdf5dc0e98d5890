"""Deterministic bar-level trading simulator with an LLM agent pipeline and
windowed prompt optimization."""

from .bars import Bar, BarSeries, CorporateAction, Lookback, Resolution, SessionCalendar
from .engine import Action, ExecutionEngine, Fill, Order, OrderType, PortfolioState
from .metrics import MetricReport
from .opro import window_score
from .templates import PromptTemplate

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Bar",
    "BarSeries",
    "CorporateAction",
    "ExecutionEngine",
    "Fill",
    "Lookback",
    "MetricReport",
    "Order",
    "OrderType",
    "PortfolioState",
    "PromptTemplate",
    "Resolution",
    "SessionCalendar",
    "window_score",
    "__version__",
]
