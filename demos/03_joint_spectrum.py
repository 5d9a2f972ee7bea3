"""Joint spectra and localized homology.

For commuting matrices the space splits into joint generalized eigenspaces;
membership of a point in the Taylor spectrum, in the eigenvalue support,
and nontriviality of the top homology group are all equivalent. Composing
with a polynomial map moves the spectrum by that map, and homology groups
decompose over the zeros of the composed system.
"""

from koszul_index import (CommutingTuple, Matrix, QQi, apply_polynomial_map,
                          groebner, joint_spectrum_equivalences,
                          localized_homology, parse_system, quotient_algebra,
                          spectral_decomposition)

diag = CommutingTuple([Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, 4]])])
decomposition = spectral_decomposition(diag)
print("joint eigenvalues of the diagonal pair:")
for point, space in decomposition.components:
    print("  ", tuple(str(x) for x in point), "with multiplicity", space.cols)

for candidate in [(QQi(1), QQi(3)), (QQi(1), QQi(4))]:
    report = joint_spectrum_equivalences(diag, candidate)
    print(f"at {tuple(map(str, candidate))}: spectrum={report.in_taylor_spectrum} "
          f"eigenspace={report.in_eigenvalue_support} "
          f"top-homology={report.top_homology_nonzero} agree={report.agree}")

# Multiplication operators on a finite quotient algebra: the archetype of a
# nilpotent joint spectrum concentrated at the origin.
algebra = quotient_algebra(groebner(parse_system("z1^2 - z2; z2^2", 2)))
mult = CommutingTuple(list(algebra.mult_matrices))
print("quotient dimension:", algebra.dim)
print("multiplication spectrum:",
      [(tuple(map(str, p)), s.cols)
       for p, s in spectral_decomposition(mult).components])

# Localized homology of a composed tuple at a zero: for the coordinate
# operator on C[z]/(z^2) the homology at the origin is one-dimensional in
# each degree, and away from the spectrum everything vanishes.
tz = CommutingTuple(list(quotient_algebra(groebner(parse_system("z1^2", 1))).mult_matrices))
print("local dims at 0:", localized_homology(tz, parse_system("z1", 1), (QQi(0),)))
print("local dims at 3:", localized_homology(tz, parse_system("z1", 1), (QQi(3),)))

# Spectral mapping under the polynomial calculus.
summed = apply_polynomial_map(diag, parse_system("z1 + z2", 2))
print("spectrum of the sum:",
      [(str(p[0]), s.cols) for p, s in spectral_decomposition(summed).components])
