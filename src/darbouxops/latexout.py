"""LaTeX export of matrices, operators and solution spaces.

Export only; JSON is the canonical interchange format.  Operators render
in the three-summand display eta d_x + linear part + constant part.
"""

from __future__ import annotations

from typing import List, Sequence

from .invariants import general_element
from .operators import PolyMatrix, linear_parts


def matrix_latex(m: Sequence[Sequence]) -> str:
    """A pmatrix of Poly or Scalar cells."""
    rows = [" & ".join(x.latex() for x in row) for row in m]
    body = " \\\\\n".join(rows)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def operator_latex(eta: PolyMatrix, omega: PolyMatrix) -> str:
    """Three-summand display; omega is split into linear and constant parts."""
    n = len(omega)
    const = linear_parts(omega[0][0].ring, omega)[1]
    linear = [[omega[i][j] - const[i][j] for j in range(n)] for i in range(n)]
    pieces = [matrix_latex(eta) + "\\,\\partial_x"]
    if any(x for row in linear for x in row):
        pieces.append(matrix_latex(linear))
    if any(x for row in const for x in row):
        pieces.append(matrix_latex(const))
    return "\n+\n".join(pieces)


def space_latex(basis: List[Sequence[Sequence]], symbol: str = "t") -> str:
    """General element of the span, with one named parameter per basis matrix."""
    if not basis:
        return "\\varnothing"
    return matrix_latex(general_element(basis, symbol)[1])
