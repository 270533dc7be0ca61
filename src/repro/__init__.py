"""repro — a reproduction of "What Supercomputers Say: A Study of Five
System Logs" (Adam Oliner and Jon Stearley, DSN 2007).

The package implements, from scratch:

* the paper's primary contribution — expert-rule alert tagging and the
  simultaneous spatio-temporal filtering algorithm (Algorithm 3.1), plus
  the serial baseline it improves on and the adaptive/correlation-aware
  extensions it recommends (:mod:`repro.core`);
* the substrate the paper's data came from — a calibrated synthetic log
  generator modeling the five machines' logging architectures, workloads,
  failure scenarios, corruption, and operational context
  (:mod:`repro.simulation`), with parsers for each native format
  (:mod:`repro.logmodel`);
* the paper's analyses — interarrival statistics and distribution fits,
  spatial and inter-tag correlation, time series and phase-shift detection,
  severity evaluation, RAS metrics (:mod:`repro.analysis`), and the
  per-category predictor ensemble of Section 5 (:mod:`repro.prediction`);
* text renderers regenerating every table and figure in the paper's
  evaluation (:mod:`repro.reporting`).

Quickstart::

    from repro import api
    result = api.run("liberty", scale=0.1, seed=42)
    print(result.summary())

:mod:`repro.api` is the stable import surface (``run``, ``run_all``,
``tag_lines``, ``iter_alerts``, ``serve``, plus the historical
``run_stream``/``run_system``); its facade functions are also re-exported
here at the package root.
"""

__version__ = "1.0.0"

from . import (
    analysis,
    api,
    core,
    engine,
    logio,
    logmodel,
    parallel,
    prediction,
    reporting,
    resilience,
    service,
    simulation,
    systems,
)
from .api import iter_alerts, run, run_all, serve, tag_lines

__all__ = [
    "analysis",
    "api",
    "core",
    "engine",
    "iter_alerts",
    "logio",
    "logmodel",
    "parallel",
    "prediction",
    "reporting",
    "resilience",
    "run",
    "run_all",
    "serve",
    "service",
    "simulation",
    "systems",
    "tag_lines",
    "__version__",
]
