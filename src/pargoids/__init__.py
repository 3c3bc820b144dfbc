"""Decision engine and type-inference tool for finite partial groupoids.

A pargoid is a finite set with a partial binary product. This package
decides whether a pargoid admits a typing by arrow types, constructs the
typing when it exists, and otherwise produces a certificate — an
application-order cycle or a definite-operation violation — that can be
re-checked against the product table alone.

Import each name from the module that defines it, for example
``from pargoids.typability import decide``. Importing the package itself
defines no names and loads no numpy.
"""
