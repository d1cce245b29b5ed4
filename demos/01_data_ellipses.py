# The data ellipse as a visual summary: Galton's parent/child heights.
#
# A bivariate sample is summarized by its mean and covariance; the level
# sets of the Mahalanobis distance are concentric ellipses. The radius-1
# ("40%") ellipse projects onto each axis as mean +/- one standard
# deviation, and the regression lines of each variable on the other pass
# through the points of vertical/horizontal tangency.

import csv
import io
import os

import numpy as np

from ellipstat import datasets, render
from ellipstat import statellipse as st
from ellipstat.numkernel import cov_to_corr

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

rows = list(csv.reader(io.StringIO(datasets.fixture_csv_text("galton"))))
data = np.array([[float(v) for v in r] for r in rows[1:]])
sample = st.Sample(data, ("parent height (in)", "child height (in)"))

mean, cov = st.mean_cov(sample)
r = cov_to_corr(cov)[0, 1]
print(f"n = {sample.n} pairs")
print(f"means: parent {mean[0]:.2f}, child {mean[1]:.2f}")
print(f"sds:   parent {np.sqrt(cov[0, 0]):.3f}, child "
      f"{np.sqrt(cov[1, 1]):.3f}")
print(f"correlation r = {r:.3f}")

# coverage radii: c^2 is a chi-square_2 quantile
for level in (0.40, 0.68, 0.95):
    c = st.coverage_radius(level, 2)
    print(f"{level:.0%} ellipse: c^2 = {c * c:.3f}")

# the 40% ellipse has radius ~1, so its axis shadows are ~1 sd each way
ell = st.data_ellipsoid(sample, 1.0)
lo, hi = st.univariate_shadow(ell, np.array([1.0, 0.0]))
print(f"radius-1 shadow on the parent axis: half-width "
      f"{(hi - lo) / 2:.3f} (= sd)")

ellipses = [st.data_ellipsoid(sample, st.coverage_radius(level, 2))
            for level in (0.40, 0.68, 0.95)]
scene = render.build_data_ellipse_panel(
    sample, mean, st.regression_slopes(cov), ellipses,
    title="Galton heights with 40/68/95% data ellipses")
path = os.path.join(OUT, "galton_data_ellipses.svg")
with open(path, "w") as f:
    f.write(render.render_scene(scene))
print("wrote", path)
