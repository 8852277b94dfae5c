"""Continual-learning lab for CTR prediction.

Models are trained, their predictions logged, and each successor version is
penalized whenever it does worse than its predecessor on the same samples.
"""

__version__ = "0.1.0"
