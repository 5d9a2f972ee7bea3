"""The row-filtration spectral sequence of a joined pair of tuples.

Splitting the exterior algebra by which generators come from the first
tuple gives a bicomplex whose totalization is the Koszul complex of the
joined tuple. Its page-2 term is the homology of the first tuple acting on
the homology of the second, and the pages converge to the joined homology.
A page is its grid of dimensions; the page-r differential vanishes exactly
when page r + 1 has the same grid.
"""

from koszul_index import (CommutingTuple, Matrix, build_bicomplex,
                          build_complex, e2_page, euler_via_e2, homology,
                          page_sequence, stabilization_page)

jordan = Matrix([[0, 1], [0, 0]])
zero = Matrix.zeros(2, 2)

bc = build_bicomplex(CommutingTuple([jordan]), CommutingTuple([zero]))
print("block dimensions [p][q]:", bc.dims)

pages = page_sequence(bc, 4)
for page, nxt in zip(pages, pages[1:]):
    print(f"page {page.r}: dims {page.dims}  "
          f"same grid on page {nxt.r}: {nxt.dims == page.dims}")
print(f"page {pages[-1].r}: dims {pages[-1].dims}  (the limit page)")
print("stabilization page:", stabilization_page(pages))

total = homology(build_complex(bc.joined))
print("joined tuple homology:", total.dims)
print("limit page antidiagonal sums:", pages[-1].totals.dims)

# The signed page-2 sum reproduces the (vanishing) index.
print("index via page 2:", euler_via_e2(bc))

# Pages 0, 1 and 2 are also computed without the filtration (closed forms
# for pages 0 and 1; row homology, induced action and Koszul homology of the
# induced tuple for page 2); e2_page raises if any route disagrees.
print("page-2 grid:", e2_page(bc).dims)
