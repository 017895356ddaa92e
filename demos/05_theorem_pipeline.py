"""End-to-end: a certified isometric l1^k inside SNA of any space with at
least 2^k points, two ways.

The pipeline follows the constructive chain: pick a spread-out 2^k-point
subset K, find a 1-complemented isometric l1^(2^(k-1)) with a molecule basis
in the free space over K, lift its coordinate functionals through the
projection (an isometric l-infinity basis), recombine with the Rademacher
sign matrix, and extend to the whole space by McShane, witnesses staying in
K.  The direct search assigns witness pairs to sign classes and solves an
exact feasibility LP, independent of all of that machinery.
"""

from lipcert.certify import l1_isometry_corner
from lipcert.construct import direct_search_l1, rademacher_embedding, theorem_pipeline
from lipcert.metric import random_space

space = random_space(7, seed=3, method="range")

result = theorem_pipeline(space, k=2)
print("pipeline k=2 on a random 7-point space")
print("  subset K:", result.subset_indices)
print("  complementation search tried", result.complementation.tuples_tried, "tuples")
print("  certificate:", result.certificate.status)
for w in result.certificate.sign_witnesses:
    print(f"  sign class {w.epsilon} attained at ({w.x},{w.y})  [inside K]")

direct = direct_search_l1(space, k=2)
print("direct search: found =", direct.found, "after", direct.assignments_tried, "assignments")

# Both bases pass both certification criteria.
assert l1_isometry_corner(result.certificate.basis).valid
assert l1_isometry_corner(direct.certificate.basis).valid

print("Rademacher matrix for k=3 (l1^3 inside l-infinity^4):")
for row in rademacher_embedding(3):
    print("  ", row)
