"""Zeta functions of mapping tori.

A presentation with no handles (N = 0) is a mapping torus, and its whole
invariant package collapses onto the zeta function of the monodromy: the
trace of the TQFT endomorphism in symmetric power n is the Lefschetz number
of the induced map there, which is also the n-th zeta coefficient.
"""
from swtorsion import (Presentation, SurfaceModel, graded_trace,
                       induced_endomorphism, trace_kappa_coefficient,
                       zeta_series)

# The three-torus: identity monodromy on the 2-torus.  Its zeta function is
# (1-t)^2/(1-t)^2 = 1, so every positive symmetric power contributes nothing.
t3 = Presentation.from_matrix(1, 0, [[1, 0], [0, 1]], name="T3")
print("T3 zeta:", zeta_series(t3, 5))

# An Anosov monodromy on the torus.  det(1 - tA) = 1 - 3t + t^2 makes the
# coefficients drop away negatively.
anosov = Presentation.from_matrix(1, 0, [[2, 1], [1, 1]], name="anosov")
print("anosov zeta:", zeta_series(anosov, 5))
for n in range(4):
    tr = trace_kappa_coefficient(anosov, n)
    lef = graded_trace(induced_endomorphism(anosov.monodromy, n))
    print(f"  n={n}: trace={tr}  lefschetz={lef}")

# A random genus-2 monodromy, built deterministically from a transvection
# word.  zeta_series reads det(1 - tA) once, from Newton's identities on the
# traces of A^k.  verify's side of the trace identity reads it from one
# division-free Berkowitz pass (linalg.det_one_minus_t) instead, so verify
# at N = 0 checks what zeta prints.  The Lefschetz numbers printed above are
# a further route.
from swtorsion import random_symplectic

A = random_symplectic(SurfaceModel(2), 6, seed=11)
print("genus-2 word monodromy zeta:", zeta_series(Presentation(2, 0, A), 6))
