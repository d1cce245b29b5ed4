# Kissing ellipsoids: one geometric idea behind many estimators.
#
# Two families of concentric ellipses osculate along the zero set of a
# bilinear cross-product field -- a conic through both centers. The same
# picture describes the two-group discriminant axis (data space), ridge
# and Bayes estimates (coefficient space), and the BLUPs of mixed models
# and multivariate meta-analysis (matrix-weighted averages of two
# information sources).

import csv
import io
import os

import numpy as np

from ellipstat import datasets, kissing as ki, render
from ellipstat import distributions as dist
from ellipstat.numkernel import cov_to_corr

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# 1. the locus of osculation for the demo families
f1 = ki.QuadFamily([-2.0, 2.0], [[1.0, 0.5], [0.5, 1.5]])
f2 = ki.QuadFamily([2.0, 6.0], [[1.5, -0.3], [-0.3, 1.0]])
bbox = (-8.0, 8.0, -4.0, 12.0)
locus = ki.trace_locus(f1, f2, bbox, 96)
fit = ki.locus_summary(f1, f2, locus)
print(f"locus: {len(locus['polylines'])} branch(es), "
      f"{fit['n_vertices']} vertices, max |g| residual "
      f"{fit['max_abs_g']:.2e}")
kisses = [ki.osculation_point(f1, f2, r1, locus=locus) for r1 in (2.0, 3.0)]
for r1, (pt, r2) in zip((2.0, 3.0), kisses):
    print(f"  level {r1:.1f} of family 1 kisses level {r2:.3f} of "
          f"family 2 at ({pt[0]:+.3f}, {pt[1]:+.3f})")
scene = render.build_kiss_locus(f1, f2, bbox, locus=locus, kisses=kisses,
                                title="locus of osculation")
with open(os.path.join(OUT, "kiss_locus.svg"), "w") as f:
    f.write(render.render_scene(scene))

# 2. ridge trace on the Longley series
rows = list(csv.reader(io.StringIO(datasets.fixture_csv_text("longley"))))
arr = np.array([[float(v) for v in r] for r in rows[1:]])
x, y = arr[:, :6], arr[:, 6]
ks = [0.0, 0.005, 0.01, 0.02, 0.04, 0.08]
trace = ki.ridge_trace(x, y, ks, coords=(1, 2))
path = ki.ridge_path_summary(trace)
print("ridge on Longley (standardized scale):")
for k, nrm, det in zip(ks, path["coef_norms"],
                       path["cov_generalized_variance"]):
    print(f"  k = {k:5.3f}  |beta| = {nrm:7.3f}  gen.var = {det:.3e}")
scene = render.build_ridge_trace(
    trace, names=("GNP", "Unemployed"),
    title="bivariate ridge trace (half-radius ellipses)")
with open(os.path.join(OUT, "ridge_trace.svg"), "w") as f:
    f.write(render.render_scene(scene))

# ridge is the zero-prior special case of the conjugate Bayes combination
bayes = ki.bayes_posterior(x, y, np.zeros(6), 0.02 * np.eye(6))
print(f"bayes(A = 0.02 I, prior 0) equals ridge(0.02): "
      f"{np.abs(bayes['beta_post'] - ki.ridge(x, y, 0.02).beta).max():.1e}")

# 3. multivariate meta-analysis of the periodontal trials
rows = list(csv.reader(io.StringIO(datasets.fixture_csv_text("berkey"))))[1:]
arr = np.array([[float(v) for v in r[3:8]] for r in rows])
studies = ki.StudyStack(arr[:, :2], arr[:, [2, 3, 3, 4]].reshape(-1, 2, 2),
                        labels=[r[0] for r in rows])
fixed = ki.meta_fixed(studies)
delta = ki.estimate_delta_mom(studies)
re = ki.meta_random(studies, delta)
blups = ki.meta_blup(studies, re["beta"], re["cov"], delta)
print(f"fixed-effect pool:  ({fixed['beta'][0]:+.3f}, "
      f"{fixed['beta'][1]:+.3f})")
print(f"random-effect pool: ({re['beta'][0]:+.3f}, {re['beta'][1]:+.3f}) "
      f"with between-study corr {cov_to_corr(delta)[0, 1]:.2f}")
scene = render.build_meta_panel(
    studies, re, dist.chi2_quantile(0.40, 2), blups=blups, delta=delta,
    names=("PD effect", "AL effect"),
    title="random-effects meta-analysis with BLUPs")
with open(os.path.join(OUT, "meta_random.svg"), "w") as f:
    f.write(render.render_scene(scene))

# 4. BLUPs shrink school-level fits toward the GLS pool
school, cses, mathach = zip(
    *list(csv.reader(io.StringIO(datasets.hsb_sample())))[1:])
spec = ki.MixedSpec(
    np.column_stack([np.ones(len(cses)), np.array(cses, dtype=float)]),
    np.array(mathach, dtype=float), school)
g_mat = np.diag([6.0, 0.05])
gls = ki.gls_fixed(spec, g_mat)
blues = ki.cluster_blues(spec)
bp = ki.blup(blues["beta"], blues["s_mat"], gls["beta"], g_mat)["beta"]
rel = ki.relative_shrinkage(blues["beta"], bp)
print(f"school BLUPs: relative shrinkage intercept {rel[0]:.2f}, "
      f"slope {rel[1]:.2f} (slopes pool much harder)")
print("wrote", OUT)
