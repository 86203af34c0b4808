"""Exact structure-constant computer algebra for Courant algebroids,
1-truncated conformal algebras, and the graded vertex Poisson algebras
they generate."""
