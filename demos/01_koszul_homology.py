"""Koszul complexes of commuting tuples: chain spaces, homology, and the
mapping cone.

The complex of an n-tuple on a d-dimensional space has chain spaces of
dimension d * C(n, k); because the Euler characteristic of those chain
spaces is zero, every finite-dimensional tuple has index 0. What varies is
the homology profile, and that is what detects joint invertibility.
"""

from koszul_index import (CommutingTuple, Matrix, build_complex, homology,
                          mapping_cone, verify_cone_isomorphism)

# A nilpotent Jordan block paired with the zero operator on C^2.
jordan = Matrix([[0, 1], [0, 0]])
zero = Matrix.zeros(2, 2)
pair = CommutingTuple([jordan, zero])

complex_ = build_complex(pair)
print("chain dimensions:", complex_.dims)
print("d1 =", [[str(x) for x in row] for row in complex_.d(1).entries])
print("d2 =", [[str(x) for x in row] for row in complex_.d(2).entries])

profile = homology(complex_)
print("homology dims:", profile.dims)
print("euler characteristic:", profile.euler, " index:", profile.index)

# Tuples containing an invertible operator are contractible.
with_identity = pair.extend(Matrix.identity(2))
print("after adjoining the identity:", homology(build_complex(with_identity)).dims)

# The cone over an extra commuting operator b re-creates the complex of the
# extended tuple; the explicit degreewise map witnesses the isomorphism.
cone = mapping_cone(complex_, jordan)
extended = build_complex(pair.extend(jordan))
print("cone homology:    ", cone.homology_dims())
print("extended homology:", extended.homology_dims())
print("cone map is a bijective chain map:", verify_cone_isomorphism(complex_, jordan))
