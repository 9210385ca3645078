"""The trace identity: TQFT traces against torsion times zeta.

With handles present the monodromy no longer determines everything through
its zeta function alone; the Morse complex of the presentation contributes a
determinant of crossing series.  The graded trace of kappa_n equals the n-th
coefficient of the product, and verify_main_identity checks that through two
independent trace routes.  The torsion itself has a fast route, the ratio of
two determinant pencils, and the Morse determinant that verify runs.
"""
from swtorsion import (Presentation, morse_differential_matrix, morse_torsion,
                       rhs_series, torsion_coefficient_direct,
                       torsion_representative, verify_main_identity,
                       zeta_series)
from swtorsion.cli import generate_fixture

# One handle over the sphere, monodromy rotating the handle classes:
# c -> d, d -> -c.  The Morse matrix is the single crossing series
# -t + t^3 - t^5 + ...
rot = Presentation.from_matrix(0, 1, [[0, -1], [1, 0]], name="one-handle rotation")
matrix = morse_differential_matrix(rot, 6)
print("crossing series:", matrix.entries[0][0])
print("torsion representative:", torsion_representative(rot, 6))
print("zeta:", zeta_series(rot, 6))
print("combined series:", rhs_series(rot, 5))

report = verify_main_identity(rot, 4)
print("identity check:")
for row in report.rows:
    print(f"  n={row.n}  trace={row.lhs}  series={row.rhs}  "
          f"{'ok' if row.match else 'MISMATCH'}")
assert report.passed

# The pencil ratio, the Morse determinant and the composition sum give the
# same torsion coefficients.
fixture = generate_fixture(1, 2, words=7, seed=2)
pencils = [int(c) for c in torsion_representative(fixture, 6).coeffs]
morse = [int(c) for c in morse_torsion(fixture, 6).coeffs]
direct = [torsion_coefficient_direct(fixture, k) for k in range(7)]
print("pencil ratio:     ", pencils)
print("Morse determinant:", morse)
print("direct sum:       ", direct)
assert pencils == morse == direct

# A batch of random presentations, all verified exactly.
for seed in range(5):
    P = generate_fixture(1, 1, words=8, seed=seed)
    outcome = verify_main_identity(P, 3)
    print(f"seed {seed}: traces {[r.lhs for r in outcome.rows]} "
          f"pass={outcome.passed}")
    assert outcome.passed
