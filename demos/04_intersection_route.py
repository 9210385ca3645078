"""The graph-diagonal route to the same trace numbers.

The trace of kappa_n can be packaged as an intersection number inside the
square of a symmetric power: a diagonal-type class assembled from the handle
curves paired against the graph class of the monodromy.  Every duality sign
convention in the library is pinned by this agreement.
"""
from swtorsion import (Presentation, diagonal_class, graph_class,
                       intersection_number, trace_kappa_coefficient)
from swtorsion.cli import generate_fixture

# Without handles and with identity monodromy this is the classical
# self-intersection of the diagonal: the Euler characteristic of Sym^n.
torus = Presentation.from_matrix(1, 0, [[1, 0], [0, 1]])
print("chi(Sym^n T2):", [intersection_number(torus, n) for n in range(4)])

genus2 = generate_fixture(2, 0, words=0, seed=0)
print("chi(Sym^n Sigma_2):", [intersection_number(genus2, n) for n in range(4)])

# With handles the diagonal class gets wedged by the handle curves on one
# side and their duals on the other; the count still matches the trace.
for seed in range(4):
    P = generate_fixture(1, 1, words=6, seed=seed)
    for n in range(3):
        d_gamma = intersection_number(P, n)
        trace = trace_kappa_coefficient(P, n)
        assert d_gamma == trace
    print(f"seed {seed}: D.Gamma = trace verified for n <= 2")

# The classes themselves are small integer combinations of monomial pairs.
# intersection_number never builds the graph class; it reads the few graph
# coefficients the diagonal pairs with as restricted minors of A.  Here the
# materialised graph_class, the reference route, is built for display.
P = Presentation.from_matrix(0, 1, [[0, -1], [1, 0]])
D = diagonal_class(P, 1)
G = graph_class(P, 1)
print(f"diagonal class: {len(D)} terms; graph class: {len(G)} terms")
print("intersection numbers:", [intersection_number(P, n) for n in range(3)])
