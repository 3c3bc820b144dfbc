"""Clone settings shared by the CLI and the clone closure.

Kept apart from polyclone so that importing them loads no numpy: commands
that compute no clone, such as ``pargoid verify``, stay numpy-free.
"""

DEFAULT_BUDGET = 8192
READINGS = ("total", "on-domain")
