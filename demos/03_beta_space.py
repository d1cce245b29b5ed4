# Coefficient space: joint and per-coefficient confidence ellipses,
# added-variable geometry, and measurement-error attenuation.
#
# The synthetic coffee/stress/heart fixture is built so both predictors
# look harmful marginally while the coffee coefficient turns (mildly)
# protective once stress is controlled. The joint 95% ellipse, the
# CI-generating ellipse and its axis shadows make the visual tests
# explicit, and the added-variable overlay shows the conditional
# relation directly.

import csv
import io
import os

import numpy as np

from ellipstat import datasets, linmod, render
from ellipstat import statellipse as st

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

rows = list(csv.reader(io.StringIO(
    datasets.fixture_csv_text("synthetic-coffee"))))
arr = np.array([[float(v) for v in r] for r in rows[1:]])
coffee, stress, heart = arr[:, 0], arr[:, 1], arr[:, 2]
x = arr[:, :2]

marg_c = linmod.ols_fit(coffee, heart).coef[1]
marg_s = linmod.ols_fit(stress, heart).coef[1]
fit = linmod.ols_fit(x, heart, names=["intercept", "Coffee", "Stress"])
print(f"marginal slopes: coffee {marg_c:+.3f}, stress {marg_s:+.3f}")
print(f"joint model:     coffee {fit.coef[1]:+.3f}, "
      f"stress {fit.coef[2]:+.3f}")
cis = []
for j, name in ((1, "Coffee"), (2, "Stress")):
    c = np.zeros(3)
    c[j] = 1.0
    lo, hi = linmod.shadow_interval(fit, c, linmod.ConfidenceSpec("ci"))
    cis.append((lo, hi))
    verdict = "excludes" if lo > 0 or hi < 0 else "covers"
    print(f"  95% CI for {name}: [{lo:+.3f}, {hi:+.3f}] ({verdict} 0)")

joint = linmod.confidence_ellipsoid(fit, [1, 2])
ci = linmod.confidence_ellipsoid(fit, [1, 2], linmod.ConfidenceSpec("ci"))
scene = render.build_beta_space_panel(
    joint, ci, cis, ("Coffee", "Stress"),
    title="joint 95% (green) and CI (red) ellipses")
with open(os.path.join(OUT, "coffee_beta_space.svg"), "w") as f:
    f.write(render.render_scene(scene))

res = linmod.avp(x, heart, 0)
marg = res["marginal"]
cond = np.column_stack([res["x_star"], res["y_star"]])
half = st.CoverageSpec.chisq(0.50)
scene = render.build_avp_marginal_overlay(
    marg, cond, st.data_ellipsoid(st.Sample(marg), half),
    st.data_ellipsoid(st.Sample(cond), half), res["marginal_slope"],
    res["slope"],
    names=("Coffee", "Heart"),
    title="added-variable vs marginal view of Coffee")
with open(os.path.join(OUT, "coffee_avp_overlay.svg"), "w") as f:
    f.write(render.render_scene(scene))

infl = linmod.vif(x, 0)
print(f"AVP slope = {res['slope']:+.4f} "
      f"(= joint-model coefficient {res['full_model_coef']:+.4f})")
print(f"VIF for coffee: {infl['algebraic']:.2f}")

# visual CI for a simple regression slope
out = linmod.visual_ci_slope(stress, heart)
a_lo, a_hi = out["approx_interval"]
e_lo, e_hi = out["exact_interval"]
print(f"visual CI for heart ~ stress: slope {out['slope']:.3f}, "
      f"approx [{a_lo:.3f}, {a_hi:.3f}], exact [{e_lo:.3f}, {e_hi:.3f}]")

# attenuation: noise in a predictor drags its slope toward zero
curve = linmod.attenuation_curve(stress, heart, [0.0, 0.5, 1.0, 1.5],
                                 reps=200, seed=1)
print("attenuation of the stress slope under predictor noise:")
for d, got, want in zip(curve["deltas"], curve["mean_ratio"],
                        curve["expected_ratio"]):
    print(f"  delta = {d:3.1f}: mean ratio {got:.3f} "
          f"(1/(1+delta^2) = {want:.3f})")
print("wrote", OUT)
