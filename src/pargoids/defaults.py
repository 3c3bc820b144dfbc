"""Settings shared by the CLI and the modules it loads on demand.

Kept apart from polyclone and generators so that importing them loads
neither: commands that compute no clone, such as ``pargoid verify``, stay
numpy-free, and only ``gen`` and ``stats`` load the generators.
"""

DEFAULT_BUDGET = 8192
READINGS = ("total", "on-domain")
GEN_MODES = ("arbitrary", "typed_strong", "typed_literal")
