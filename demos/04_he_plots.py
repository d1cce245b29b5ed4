# Hypothesis-error plots and canonical projection for the iris MANOVA.
#
# The between-group SSCP matrix H is drawn against the residual SSCP E.
# With Roy significance scaling, H pokes outside E exactly when Roy's
# largest-root test rejects, and the direction of protrusion names the
# response combination driving the effect. Orthogonal contrasts split H
# additively; the canonical projection shows all four responses at once
# in the 2D space where E is spherical.

import os

import numpy as np

from ellipstat import datasets, mlm, render
from ellipstat import statellipse as st

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

gs = datasets.load_iris_grouped()
fit, labels = mlm.manova_fit(gs)
hyp = mlm.overall_hypothesis(gs.g)
h, e = mlm.hypothesis_matrices(fit, hyp)
res = mlm.test_stats(h, e, df_h=gs.g - 1, df_e=fit.df_e)

print("latent roots:", np.round(res.lambdas, 3))
print(f"Wilks {res.wilks:.4f}  Pillai {res.pillai:.4f}  "
      f"Hotelling-Lawley {res.hotelling_lawley:.2f}  Roy {res.roy:.2f}")
for name, (f_val, d1, d2, p) in res.f_stats.items():
    print(f"  {name:17s} F({d1:g}, {d2:g}) = {f_val:8.2f}   p = {p:.2e}")
crit = mlm.roy_critical(gs.g - 1, fit.df_e, gs.p)
print(f"Roy critical value at 0.05: {crit:.4f}; protrusion ratio "
      f"{res.roy / crit:.1f} (H sticks far outside E)")

_, means, _ = st.group_means(gs)
ell_h, ell_e = mlm.he_ellipses(h, e, fit.df_e, coords=(0, 2),
                               center=fit.y_mean, df_h=gs.g - 1)
scene = render.build_he_plot(ell_h, ell_e, names=(gs.names[0], gs.names[2]),
                             means=means[:, [0, 2]], labels=labels,
                             title="iris HE plot (Roy significance scaling)")
with open(os.path.join(OUT, "iris_he.svg"), "w") as f:
    f.write(render.render_scene(scene))

# orthogonal contrasts: setosa vs the others, versicolor vs virginica
dec = mlm.contrast_decompose(
    fit, [mlm.Hypothesis([[-2.0, 1.0, 1.0]], "S:VV"),
          mlm.Hypothesis([[0.0, 1.0, -1.0]], "V:V")],
    overall=hyp)
print(f"contrast additivity residual: {dec['residual']:.2e} "
      f"(orthogonal: {dec['orthogonal']})")

can = mlm.canonical(gs)
print(f"canonical percents: {np.round(can.percent, 2)}")
print("structure coefficients (responses vs canonical scores):")
for name, row in zip(gs.names, can.structure):
    print(f"  {name:12s} {row[0]:+.3f} {row[1]:+.3f}")
ell_h, ell_e = mlm.canonical_he_ellipses(gs, can)
scene = render.build_canonical_he(ell_h, ell_e, can, gs.names,
                                  title="iris in canonical space")
with open(os.path.join(OUT, "iris_canonical.svg"), "w") as f:
    f.write(render.render_scene(scene))

scene = render.build_scatterplot_matrix(
    gs, st.pairwise_data_ellipsoids(gs, st.CoverageSpec.chisq(0.68)),
    title="iris pairwise 68% ellipses by species")
with open(os.path.join(OUT, "iris_pairs.svg"), "w") as f:
    f.write(render.render_scene(scene))
print("wrote", OUT)
