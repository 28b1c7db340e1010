"""alphax: extremal alpha-index search over minimally connected graph classes."""

__version__ = "0.1.0"  # the one version source: pyproject and reports read it
