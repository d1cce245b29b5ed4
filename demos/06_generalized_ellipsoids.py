# The generalized ellipsoid: one object for fat, flat and unbounded.
#
# Center + orthogonal frame + radii in [0, inf] is closed under duality,
# linear images and projections. The signature (#positive, #zero,
# #infinite radii) classifies the shape; duality swaps zeros with
# infinities. Conjugate axes are the columns of any factor A with
# W = A A^T; their bounding tangent parallelograms all share the same
# area and the same sum of squared diameters.

import numpy as np

from ellipstat import gellipsoid as ge

c1 = np.array([[6.0, 2.0, 1.0], [2.0, 3.0, 2.0], [1.0, 2.0, 2.0]])
c2 = np.array([[6.0, 2.0, 0.0], [2.0, 3.0, 0.0], [0.0, 0.0, 0.0]])

fat = ge.from_moment(c1)
flat = ge.from_moment(c2)
print("signatures (positive, zero, infinite):")
print("  moment(C1):      ", ge.signature(fat).as_tuple(), "- proper")
print("  moment(C2):      ", ge.signature(flat).as_tuple(), "- flat")
print("  dual(moment(C2)):", ge.signature(ge.dual(flat)).as_tuple(),
      "- unbounded cylinder")
print("  dual is an involution:",
      np.allclose(ge.dual(ge.dual(fat)).radii, fat.radii))

print(f"volume of moment(C1): {ge.volume(fat):.3f} "
      f"(flat: {ge.volume(flat)}, cylinder: "
      f"{ge.volume(ge.dual(flat))})")
print("size measures of moment(C1):")
for k, v in ge.size_measures(fat).items():
    print(f"  {k:20s} {v:.4f}")

# projection: the shadow of the C1 ellipsoid on the (x1, x2) plane
p3 = np.diag([1.0, 1.0, 0.0])
shadow = ge.project(fat, p3)
print("shadow of moment(C1) on the (x1, x2) plane:",
      ge.signature(shadow).as_tuple(), "radii",
      np.round(shadow.radii, 3))

# conjugate axes of a 2x2 moment matrix under three factorizations
w = np.array([[3.25, 3.5], [3.5, 5.0]])
given = np.array([[1.0, 1.5], [2.0, 1.0]])
print("conjugate axes of W = [[3.25, 3.5], [3.5, 5]]:")
for kind, extra in (("given", given), ("cholesky", None),
                    ("principal", None)):
    axes = ge.conjugate_axes(w, kind, given=extra)
    print(f"  {kind:9s} area {axes.area():.6f}  "
          f"sum sq diameters {axes.sum_sq_diameters():.6f}  "
          f"|A'W^-1A - I| = {axes.gram_residual(w):.1e}")
print("(the area and diameter sums agree across factorizations)")

# every conjugate axis endpoint lies on the ellipsoid, with the tangent
# there parallel to the other axis
e = ge.from_moment(w)
axes = ge.conjugate_axes(w, "given", given=given)
for j in range(2):
    pt = axes.axes[:, j]
    normal, _ = ge.tangent_plane(e, pt)
    other = axes.axes[:, 1 - j]
    print(f"  axis {j + 1} endpoint on boundary: "
          f"{ge.contains(e, pt) == 'boundary'}; tangent parallel to the "
          f"other axis: {abs(normal @ other) < 1e-9}")
