"""Functionally-grounded evaluation metrics for model explanations.

Three metric families, plus reference implementations of the explainers they
judge: mutual-information monitoring for feature extractors, representativeness
and diversity for example-based explanations, and restriction-loss metrics
(monotonicity, non-sensitivity, complexity, effective complexity) for feature
attributions. The API lives in the submodules (``xmeter.core``,
``xmeter.attr_metrics``, ``xmeter.mi``, ``xmeter.example_based``,
``xmeter.bench``, ``xmeter.park``); the package root imports none of them, so
a process that needs one module loads only that: ``python -m
xmeter.model_server`` loads ``handle``, ``park`` and ``protocol``.
"""

__version__ = "0.1.0"
