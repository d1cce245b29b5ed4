# Marginal, conditional and ecological associations in grouped data.
#
# When a sample is stratified into groups, three different slopes can be
# estimated: pooled within-group, between-group (from the group means),
# and marginal (ignoring groups). The total covariance is a weighted
# average of the within and between parts, so the marginal slope always
# lies between the other two -- and can differ from the within-group
# slope in sign (Simpson's paradox).

import os


from ellipstat import gellipsoid as ge
from ellipstat import render
from ellipstat import statellipse as st

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

for sign, label in ((+1, "positive"), (-1, "negative")):
    gs = st.grouped_slopes_demo(cov_sign=sign)
    d = st.marginal_decomposition(gs)
    print(f"within-group correlation {label}:")
    for key in ("beta_within", "beta_between", "beta_marginal"):
        print(f"  {key:14s} = {d[key]: .3f}")
    print(f"  r_within = {d['r_within']: .3f}, "
          f"r_between = {d['r_between']: .3f}")
    inside = (min(d["beta_within"], d["beta_between"])
              <= d["beta_marginal"]
              <= max(d["beta_within"], d["beta_between"]))
    print(f"  marginal slope inside [within, between]: {inside}")

    # draw the per-group ellipses, the pooled-within ellipse centered at
    # the grand mean, and the between-means ellipse
    layers = [render.AxisLayer(label_x="x", label_y="y")]
    grand, _ = st.mean_cov(st.Sample(gs.data))
    c2 = st.coverage_radius(2, st.CoverageSpec.chisq(0.68)) ** 2
    for i, rows in enumerate(gs.split()):
        color = render.PALETTE["groups"][i % 6]
        layers.append(render.PointsLayer(
            rows, render.Style(stroke=color, width=0.6), size=1.6))
        layers.append(render.EllipseLayer(
            [st.data_ellipsoid(st.Sample(rows), st.CoverageSpec.chisq(0.68))],
            render.Style(stroke=color, width=1.0, dash="4,3")))
    layers.append(render.EllipseLayer(
        [ge.from_moment(c2 * st.pooled_within_cov(gs), grand)],
        render.Style(stroke=render.PALETTE["accent"], width=1.8)))
    layers.append(render.EllipseLayer(
        [ge.from_moment(c2 * st.between_cov(gs), grand)],
        render.Style(stroke=render.PALETTE["h"], width=1.8)))
    scene = render.Scene(layers=layers,
                         title=f"within (green) vs between (red), "
                               f"{label} within-group correlation")
    path = os.path.join(OUT, f"grouped_slopes_{label}.svg")
    with open(path, "w") as f:
        f.write(render.render_scene(scene))
    print("  wrote", path)
