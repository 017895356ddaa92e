"""Transportation-cost (Lipschitz-free) norms: primal flows, dual
functionals, exact zero duality gap, molecules, operator norms.
"""

from lipcert.freespace import (
    FreeOperator,
    canonical_molecules,
    free_norm,
    free_norm_dual,
    free_norm_primal,
    free_vector,
    operator_norm,
    pairing,
)
from lipcert.metric import PointedMetricSpace, random_space

eq4 = PointedMetricSpace.from_matrix([[int(i != j) for j in range(4)] for i in range(4)])

# v = delta_1 + delta_2 - 2 delta_3: two units of mass must move distance 1.
v = free_vector(eq4, [1, 1, -2])
value, arcs = free_norm_primal(v)
print("||delta_1 + delta_2 - 2 delta_3|| =", value)
print("  optimal transport:", [(a.x, a.y, str(a.weight)) for a in arcs])

dual_value, witness = free_norm_dual(v)
print("  dual value:", dual_value, " witness functional:", [str(x) for x in witness.values])
assert value == dual_value  # exact strong duality, no tolerance
assert pairing(witness, v) == value

# The same norm as an exact integer transport: cycle canceling stops at a
# 1-Lipschitz potential tight on every arc with flow.
print("  integer transport:", free_norm(v))
assert free_norm(v) == value

# Molecules (delta_x - delta_y)/rho(x,y) are exactly the norm-one candidates.
for mol in canonical_molecules(eq4)[:3]:
    norm = free_norm(mol.as_free_vector())
    print(f"molecule ({mol.x},{mol.y}): norm = {norm}")

# Operator norms reduce to molecule enumeration: the free ball is the
# absolutely convex hull of the molecules.
proj = FreeOperator.from_matrix(eq4, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
norm, arg = operator_norm(proj)
print("projection onto span(delta_1): operator norm =", norm, "at molecule", (arg.x, arg.y))

# Duality holds on random spaces too.
space = random_space(6, seed=42, method="euclidean")
w = free_vector(space, [1, -2, 3, 0, -1])
p = free_norm(w)
d, _ = free_norm_dual(w)
print(f"random 6-point space: transport = dual = {p}")
assert p == d
