# Command-line surface: --data resolution (a CSV file or a fixture, read
# by datasets' one CSV reader), one subcommand per analysis family, JSON
# numeric export with stable keys and 12-significant-digit floats,
# optional SVG figure output. Exit codes: 0 success, 2 input error, 3
# numerical failure.

import argparse
import itertools
import json
import math
import os
import re
import sys

from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

# Every other ellipstat module is imported inside the function that uses
# it, so a command loads only the modules it runs.
from .numkernel import InputError, cov_to_corr


# ------------------------------------------------------------- data table

def load_csv(path):
    """Load a UTF-8 CSV file: header row, comma separators, '.' decimals.
    The file is opened with newline="", as csv.reader needs, so a quoted
    CR LF stays in its cell; a CR alone ends a line, as an LF does."""
    from . import datasets
    try:
        with open(path, encoding="utf-8", newline="") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:   # the CSV reader takes text whose lines end in LF
        text = re.sub("\r(?!\n)", "\n", text)
    return datasets._parse_table(text, path)


def resolve_data(name_or_path):
    """A file path if it exists, otherwise a bundled/generated fixture."""
    from . import datasets
    if os.path.exists(name_or_path):
        return load_csv(name_or_path)
    base = os.path.basename(name_or_path)
    base = base[:-4] if base.endswith(".csv") else base
    if base in datasets.list_fixtures():
        try:
            text = datasets.fixture_csv_text(base)
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"fixture {base!r}: {exc}") from exc
        return datasets._parse_table(text, f"fixture:{base}")
    raise InputError(f"no such file or fixture: {name_or_path}")


# ------------------------------------------------------------ JSON output

def _json_float(v):
    v = float(v)
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return f"{v:.12g}"


def _json_dict(obj):
    return "{" + ", ".join(f"{_json_str(str(k))}: {_json_fragment(v)}"
                           for k, v in obj.items()) + "}"


# the fewest records encoded a column at a time: timed after a cli call,
# the column's fixed numpy calls cost more than they save on 20 records
# and save 15-30% on 200
_COLUMNS_FROM = 32


def _json_list(items):
    keys = tuple(items[0]) if len(items) >= _COLUMNS_FROM and \
        type(items[0]) is dict else ()
    if not keys or any(type(k) is not str for k in keys) or any(
            type(r) is not dict or tuple(r) != keys for r in items):
        return "[" + ", ".join(map(_json_fragment, items)) + "]"
    # records of the same keys in the same order, encoded a column at a time
    heads = [_json_str(k) + ": " for k in keys]
    rows = zip(*(_json_column([r[k] for r in items]) for k in keys))
    return "[" + ", ".join("{" + ", ".join(map(str.__add__, heads, row)) + "}"
                           for row in rows) + "]"


def _json_column(values):
    """_json_fragment of each of values: at once for a column of str, or of
    finite float64 arrays of one shape, else one at a time."""
    first = values[0]
    if all(type(v) is str for v in values):
        return list(map(_json_str, values))
    if type(first) is np.ndarray and all(
            type(v) is np.ndarray and v.dtype == float
            and v.shape == first.shape for v in values):
        stack = np.array(values)
        if np.isfinite(stack).all():
            nums = iter(map("{:.12g}".format, stack.ravel().tolist()))
            form = "{}"
            for n in reversed(first.shape):
                form = "[" + ", ".join([form] * n) + "]"
            return [form.format(*itertools.islice(nums, first.size))
                    for _ in values]
    return list(map(_json_fragment, values))


# the rules, tried in order for a type not in _JSON (a subclass or a numpy
# scalar)
_JSON_KINDS = [((dict,), _json_dict), ((list, tuple), _json_list),
               ((np.ndarray,), lambda a: _json_fragment(a.tolist())),
               ((bool, np.bool_), lambda b: "true" if b else "false"),
               ((int, np.integer), lambda i: str(int(i))),
               ((float, np.floating), _json_float)]
_JSON = {t: f for kinds, f in _JSON_KINDS for t in kinds}
_JSON.update({str: _json_str, np.float64: _json_float,
              np.int64: _JSON[int]})


def _json_fragment(obj):
    encode = _JSON.get(type(obj)) or next(
        (f for kinds, f in _JSON_KINDS if isinstance(obj, kinds)), json.dumps)
    return encode(obj)


def dump_json(obj):
    """JSON text with insertion-ordered keys and %.12g floats."""
    return _json_fragment(obj) + "\n"


def _emit(args, payload, scene=None):
    # every text is made before any is written, so an operation that
    # fails leaves no output behind; scene, a zero-argument builder, is
    # called only when an SVG is written
    texts = [(getattr(args, "json", None), dump_json(payload))]
    svg = getattr(args, "svg", None)
    if scene is not None and svg:
        from . import render
        texts.append((svg, render.render_scene(scene())))
    for path, text in texts:
        if not path:
            sys.stdout.write(text)
            continue
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    if scene is None and svg:
        print(f"ellip: {args.command} draws no figure; --svg {svg} not "
              f"written", file=sys.stderr)


def _ellipsoid_payload(e):
    return {"center": e.center, "frame": e.frame, "radii": e.radii}


# ------------------------------------------------------- shared arguments

def _columns_arg(value):
    return [c.strip() for c in value.split(",") if c.strip()]


def _finite(v):
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {v.strip()!r}")
    return x


def _floats_arg(value):
    try:
        return [_finite(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _matrix_arg(value):
    try:
        rows = [[_finite(v) for v in row.split(",")]
                for row in value.split(";")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise argparse.ArgumentTypeError("ragged matrix")
    return np.array(rows)


def _coords(names, value, default):
    """Positions in names of the two names listed in --coords, else default."""
    if not value:
        if max(default) >= len(names):
            raise InputError(f"the panel needs two columns of "
                             f"{list(names[min(default):])}")
        return default
    wanted = _columns_arg(value)
    if len(wanted) != 2 or not set(wanted) <= set(names):
        raise InputError(f"--coords needs two of {list(names)}")
    return [names.index(c) for c in wanted]


def _xy_columns(table, args, need=2):
    if args.x and args.y:
        names = [args.x, args.y]
    elif args.x:
        names = _columns_arg(args.x)
    else:
        names = table.numeric_names()[:need]
    if len(names) != need:
        raise InputError(f"need {need} numeric columns (--x X --y Y, or "
                         f"--x X,Y), got {names}")
    return names, np.column_stack([table.numeric(c) for c in names])


def _grouped(table, args, count=None):
    """The GroupedSample of the --columns, by default the first count
    numeric columns other than --group (all when count is None), grouped
    by --group."""
    from . import statellipse as st
    names = (_columns_arg(args.columns) if args.columns else
             [c for c in table.numeric_names() if c != args.group][:count])
    need = count or 1
    if len(names) < need:
        raise InputError(f"need {need} numeric columns other than --group "
                         f"{args.group!r}, got {names}")
    groups = table.categorical(args.group)
    return st.GroupedSample(
        np.column_stack([table.numeric(c) for c in names]), groups,
        tuple(names))


def _design_response(table, args):
    y = table.numeric(args.response)
    x_names = (_columns_arg(args.predictors) if args.predictors
               else [c for c in table.numeric_names()
                     if c != args.response])
    if not x_names:
        raise InputError("no predictor columns")
    x = np.column_stack([table.numeric(c) for c in x_names])
    return x_names, x, y


# ------------------------------------------------------------ subcommands

def cmd_data_ellipse(args):
    from . import gellipsoid as ge, statellipse as st
    table = resolve_data(args.data)
    names, mat = _xy_columns(table, args)
    sample = st.Sample(mat, tuple(names))
    mean, cov = st.mean_cov(sample)

    def radius(level):
        return st.coverage_radius(2, st.CoverageSpec.chisq(level))

    def ellipse(c):
        # st.data_ellipsoid of radius c, on the moments read once
        return ge.from_moment(c * c * cov, mean)

    c = radius(args.level)
    ell = ellipse(c)
    sh_x = st.univariate_shadow(ell, np.array([1.0, 0.0]))
    sh_y = st.univariate_shadow(ell, np.array([0.0, 1.0]))
    payload = {
        "columns": names,
        "n": sample.n,
        "level": args.level,
        "c_squared": c * c,
        "mean": mean,
        "cov": cov,
        "r": float(cov_to_corr(cov)[0, 1]),
        "radii": ell.radii,
        "shadow_x": sh_x,
        "shadow_y": sh_y,
        "area": ge.volume(ell),
    }

    def scene():
        from . import render
        ellipses = [ell if level == args.level else ellipse(radius(level))
                    for level in sorted({0.40, 0.68, args.level})]
        return render.build_data_ellipse_panel(
            sample, mean, st.regression_slopes(cov), ellipses,
            title=f"data ellipses: {names[0]} vs {names[1]}")
    _emit(args, payload, scene)
    return 0


def cmd_decompose(args):
    from . import statellipse as st
    table = resolve_data(args.data)
    gs = _grouped(table, args, 2)
    out = st.marginal_decomposition(gs, 0, 1)
    payload = {"columns": gs.names, "group": args.group, "g": gs.g,
               "n": gs.total_n}
    payload.update(out)
    _emit(args, payload)
    return 0


def cmd_betaspace(args):
    from . import gellipsoid as ge, linmod
    table = resolve_data(args.data)
    x_names, x, y = _design_response(table, args)
    fit = linmod.ols_fit(x, y, names=["intercept"] + x_names)
    coords = _coords(fit.names, args.coords, [1, 2])
    names = [fit.names[c] for c in coords]
    r_joint = linmod.ConfidenceSpec("joint", args.alpha, d=2).radius(fit.df)
    r_ci = linmod.ConfidenceSpec("ci", args.alpha).radius(fit.df)
    joint = linmod.confidence_ellipsoid(fit, coords, radius=r_joint)
    ci = linmod.confidence_ellipsoid(fit, coords, radius=r_ci)
    ci_ival = {}
    scheffe = {}
    for c in coords:
        e_c = [1.0 if i == c else 0.0 for i in range(fit.q)]
        ci_ival[fit.names[c]] = linmod.shadow_interval(fit, e_c, radius=r_ci)
        scheffe[fit.names[c]] = linmod.shadow_interval(fit, e_c,
                                                       radius=r_joint)
    inside = ge.scaled_sq_distance(joint, np.zeros(2)) <= 1.0
    payload = {
        "response": args.response,
        "predictors": x_names,
        "coef": dict(zip(fit.names, fit.coef)),
        "se": dict(zip(fit.names, fit.se())),
        "df": fit.df,
        "s2": fit.s2,
        "coords": names,
        "joint_ellipse": _ellipsoid_payload(joint),
        "ci_intervals": ci_ival,
        "scheffe_intervals": scheffe,
        "joint_test_rejects_zero": not inside,
    }

    def scene():
        from . import render
        return render.build_beta_space_panel(
            joint, ci, [ci_ival[name] for name in names], names,
            title=f"coefficient space: {args.response}")
    _emit(args, payload, scene)
    return 0


def cmd_avp(args):
    from . import linmod, statellipse as st
    table = resolve_data(args.data)
    x_names, x, y = _design_response(table, args)
    if args.k not in x_names:
        raise InputError(f"--k must be one of {x_names}")
    k = x_names.index(args.k)
    res = linmod.avp(x, y, k)
    payload = {
        "response": args.response,
        "predictor": args.k,
        "slope": res["slope"],
        "full_model_coef": res["full_model_coef"],
        "slope_matches_full_model": res["slope_matches_full_model"],
        "partial_corr": res["partial_corr"],
        "residual_match": res["residual_match"],
        "vif_algebraic": res["vif"]["algebraic"],
        "vif_geometric": res["vif"]["geometric"],
    }

    def scene():
        from . import render
        names = (args.k, args.response)
        marg = res["marginal"]
        cond = np.column_stack([res["x_star"], res["y_star"]])
        half = st.CoverageSpec.stddev(
            st.coverage_radius(2, st.CoverageSpec.chisq(0.50)))
        return render.build_avp_marginal_overlay(
            marg, cond, st.data_ellipsoid(st.Sample(marg, names), half),
            st.data_ellipsoid(st.Sample(cond, names), half),
            res["marginal_slope"], res["slope"], names=names,
            title=f"added-variable: {args.k}")
    _emit(args, payload, scene)
    return 0


def cmd_measure_error(args):
    from . import linmod
    table = resolve_data(args.data)
    x = table.numeric(args.x)
    y = table.numeric(args.response)
    deltas = args.deltas or [0.0, 0.5, 1.0, 1.5]
    curve = linmod.attenuation_curve(x, y, deltas, reps=args.reps,
                                     seed=args.seed)
    payload = {"x": args.x, "response": args.response, "reps": args.reps,
               "seed": args.seed}
    payload.update(curve)
    _emit(args, payload)
    return 0


def _manova_pieces(table, args):
    from . import mlm
    gs = _grouped(table, args)
    fit, labels = mlm.manova_fit(gs)
    hyp = mlm.overall_hypothesis(gs.g)
    h, e = mlm.hypothesis_matrices(fit, hyp)
    return gs.names, gs, fit, labels, h, e


def cmd_heplot(args):
    from . import mlm, statellipse as st
    table = resolve_data(args.data)
    names, gs, fit, labels, h, e = _manova_pieces(table, args)
    res = mlm.test_stats(h, e, df_h=gs.g - 1, df_e=fit.df_e)
    crit = mlm.roy_critical(gs.g - 1, fit.df_e, gs.p, args.alpha)
    geometry = (mlm.mtest_geometry(float(res.lambdas[0]),
                                   float(res.lambdas[1]))
                if res.s >= 2 else None)
    payload = {
        "columns": names,
        "group": args.group,
        "df_h": gs.g - 1,
        "df_e": fit.df_e,
        "lambdas": res.lambdas,
        "wilks": res.wilks,
        "pillai": res.pillai,
        "hotelling_lawley": res.hotelling_lawley,
        "roy": res.roy,
        "f_tests": {k: {"f": v[0], "df1": v[1], "df2": v[2], "p": v[3]}
                    for k, v in res.f_stats.items()},
        "partial_eta2": res.partial_eta2,
        "roy_critical": crit,
        "protrusion_ratio": res.roy / crit,
        "mtest_geometry": geometry,
    }
    coords = _coords(names, args.coords, [0, 1])

    def scene():
        from . import render
        ell_h, ell_e = mlm.he_ellipses(h, e, fit.df_e, coords=coords,
                                       center=fit.y_mean,
                                       scaling=args.scaling, crit=crit)
        _, means, _ = st.group_means(gs)
        return render.build_he_plot(
            ell_h, ell_e, names=(names[coords[0]], names[coords[1]]),
            means=means[:, coords], labels=labels,
            title=f"HE plot ({args.scaling} scaling)")
    _emit(args, payload, scene)
    return 0


def cmd_contrasts(args):
    from . import mlm
    table = resolve_data(args.data)
    names, gs, fit, labels, h, e = _manova_pieces(table, args)
    if not args.contrast:
        raise InputError("give at least one --contrast")
    hyps = []
    for i, spec in enumerate(args.contrast):
        row = np.array(spec)
        if row.size != gs.g:
            raise InputError(
                f"contrast {i + 1} needs {gs.g} entries (one per group)")
        hyps.append(mlm.Hypothesis(row[None, :], label=f"c{i + 1}"))
    dec = mlm.contrast_decompose(fit, hyps,
                                 overall=mlm.overall_hypothesis(gs.g))
    payload = {
        "columns": names,
        "groups": labels,
        "contrasts": [list(hyp.l_mat[0]) for hyp in hyps],
        "orthogonal": dec["orthogonal"],
        "h_overall": dec["h_overall"],
        "h_parts": dec["h_parts"],
        "additivity_residual": dec["residual"],
        "additivity_relative": dec["relative"],
    }
    _emit(args, payload)
    return 0


def cmd_canonical(args):
    from . import mlm
    table = resolve_data(args.data)
    gs = _grouped(table, args)
    can = mlm.canonical(gs)
    payload = {
        "columns": gs.names,
        "groups": can.group_labels,
        "lambdas": can.lambdas,
        "percent": can.percent,
        "structure": {name: can.structure[j]
                      for j, name in enumerate(gs.names)},
        "group_means": {lab: can.group_means[i]
                        for i, lab in enumerate(can.group_labels)},
    }

    if args.svg and can.scores.shape[1] < 2:
        raise InputError(f"the canonical HE plot needs two canonical "
                         f"dimensions, found {can.scores.shape[1]} "
                         f"({gs.g} groups)")

    def scene():
        from . import render
        ell_h, ell_e = mlm.canonical_he_ellipses(gs, can)
        return render.build_canonical_he(ell_h, ell_e, can, gs.names,
                                         title="canonical HE plot")
    _emit(args, payload, scene)
    return 0


def cmd_kiss(args):
    from . import kissing
    f1 = kissing.QuadFamily(args.m1, args.a1)
    f2 = kissing.QuadFamily(args.m2, args.a2)
    bbox = tuple(args.bbox) if args.bbox else kissing.default_bbox(f1, f2)
    if len(bbox) != 4:
        raise InputError("--bbox needs xmin,xmax,ymin,ymax")
    locus = kissing.trace_locus(f1, f2, bbox, args.resolution)
    kisses = [kissing.osculation_point(f1, f2, r1, locus=locus)
              for r1 in args.mark]
    payload = {
        "m1": f1.m, "m2": f2.m, "a1": f1.a_mat, "a2": f2.a_mat,
        "bbox": list(bbox),
        "resolution": args.resolution,
        "n_polylines": len(locus["polylines"]),
        **kissing.locus_summary(f1, f2, locus),
        "osculation": [{"radius1": r1, "point": pt, "radius2": r2}
                       for r1, (pt, r2) in zip(args.mark, kisses)],
    }

    def scene():
        from . import render
        return render.build_kiss_locus(f1, f2, bbox, locus=locus,
                                       kisses=kisses,
                                       title="locus of osculation")
    _emit(args, payload, scene)
    return 0


def cmd_lda(args):
    from . import kissing, statellipse as st
    table = resolve_data(args.data)
    gs = _grouped(table, args)
    if gs.g != 2:
        raise InputError(f"lda needs exactly two groups, found {gs.g}")
    labels, means, _ = st.group_means(gs)
    pooled = st.pooled_within_cov(gs)
    out = kissing.lda_axis(means[0], means[1], pooled)
    payload = {
        "columns": gs.names,
        "groups": labels,
        "mean_1": means[0],
        "mean_2": means[1],
        "pooled_cov": pooled,
        "coef": out["coef"],
        "midpoint_cut": out["midpoint_cut"],
    }
    _emit(args, payload)
    return 0


def cmd_ridge_trace(args):
    from . import kissing
    table = resolve_data(args.data)
    x_names, x, y = _design_response(table, args)
    ks = args.ks or [0.0, 0.005, 0.01, 0.02, 0.04, 0.08]
    coords = _coords(x_names, args.coords, [0, 1])
    trace = kissing.ridge_trace(x, y, ks, coords=tuple(coords))
    payload = {
        "response": args.response,
        "predictors": x_names,
        "coords": [x_names[c] for c in coords],
        "ks": [float(k) for k in ks],
        "beta_path": [t["result"].beta for t in trace],
        "beta_original_units": [t["result"].beta_original for t in trace],
        **kissing.ridge_path_summary(trace),
    }

    def scene():
        from . import render
        return render.build_ridge_trace(
            trace, names=(x_names[coords[0]], x_names[coords[1]]),
            title="bivariate ridge trace")
    _emit(args, payload, scene)
    return 0


def cmd_bayes(args):
    from . import kissing
    table = resolve_data(args.data)
    x_names, x, y = _design_response(table, args)
    q = len(x_names)
    prior = np.array(args.prior) if args.prior else np.zeros(q)
    if prior.size != q:
        raise InputError(f"--prior needs {q} entries")
    if args.precision_matrix is not None:
        a_mat = args.precision_matrix
    elif args.precision < 0:
        raise InputError("--precision is a prior precision and must be >= 0")
    else:
        a_mat = args.precision * np.eye(q)
    out = kissing.bayes_posterior(x, y, prior, a_mat)
    payload = {
        "response": args.response,
        "predictors": x_names,
        "prior_mean": prior,
        "precision": a_mat,
        "beta_ols": out["beta_ols"],
        "beta_posterior": out["beta_post"],
        "cov_unit": out["cov_unit"],
        "cov": out["cov"],
        "s2": out["s2"],
    }
    _emit(args, payload)
    return 0


def cmd_blup(args):
    from . import kissing
    table = resolve_data(args.data)
    y = table.numeric(args.response)
    x = table.numeric(args.x)
    if args.g_diag and len(args.g_diag) != 2:
        raise InputError("--g-diag needs two entries")
    if args.g_diag and min(args.g_diag) < 0:
        raise InputError("--g-diag entries are variances and must be >= 0")
    spec = kissing.MixedSpec(np.column_stack([np.ones(table.n), x]), y,
                             table.categorical(args.group))
    blues = kissing.cluster_blues(spec)
    if not blues["index"]:
        raise ValueError("no cluster has a full-rank design")
    if args.g_diag:
        g_mat = np.diag(args.g_diag)
    else:
        g_mat = kissing.estimate_g_moments(blues)
    gls = kissing.gls_fixed(spec, g_mat, blues["sigma2"])
    bp = kissing.blup(blues["beta"], blues["s_mat"], gls["beta"],
                      g_mat)["beta"]
    rel = kissing.relative_shrinkage(blues["beta"], bp)
    payload = {
        "group": args.group,
        "x": args.x,
        "response": args.response,
        "n_clusters": len(spec.labels),
        "sigma2": blues["sigma2"],
        "g_matrix": g_mat,
        "gls_beta": gls["beta"],
        "gls_cov": gls["cov"],
        "clusters": [{"label": spec.labels[i], "blue": b, "blup": p}
                     for i, b, p in zip(blues["index"], blues["beta"], bp)],
        "skipped": [spec.labels[i] for i in blues["skipped"]],
        "relative_shrinkage_intercept": float(rel[0]),
        "relative_shrinkage_slope": float(rel[1]),
    }
    _emit(args, payload)
    return 0


def _berkey_studies(table):
    from . import kissing
    # a missing column is an input error that names it
    y_pd, y_al, v_pd, cov, v_al = (table.numeric(c) for c in (
        "effect_PD", "effect_AL", "var_PD", "cov_PD_AL", "var_AL"))
    s_mats = np.stack([v_pd, cov, cov, v_al], axis=-1).reshape(-1, 2, 2)
    return kissing.StudyStack(np.column_stack([y_pd, y_al]), s_mats, labels=(
        table.categorical("trial") if "trial" in table.columns else None))


def cmd_meta(args):
    from . import kissing
    table = resolve_data(args.data)
    stack = _berkey_studies(table)
    fixed = kissing.meta_fixed(stack)
    payload = {
        "n_studies": len(stack.labels),
        "model": args.model,
        "beta_fixed": fixed["beta"],
        "cov_fixed": fixed["cov"],
    }
    if args.model == "fixed":
        payload.update(beta=fixed["beta"], cov=fixed["cov"])
        pooled, blups, delta = fixed, None, None
        title = "fixed-effect pooling"
    else:
        delta = args.delta if args.delta is not None \
            else kissing.estimate_delta_mom(stack)
        re = kissing.meta_random(stack, delta)
        blups = kissing.meta_blup(stack, re["beta"], re["cov"], delta)
        payload.update({
            "delta": delta,
            "delta_corr": float(cov_to_corr(delta, undefined=0.0)[0, 1]),
            "beta": re["beta"],
            "cov": re["cov"],
            "blups": [{"label": lab, "beta": b, "cov": c} for lab, b, c
                      in zip(stack.labels, blups["beta"], blups["cov"])],
        })
        pooled, title = re, "random-effects pooling"

    def scene():
        from . import distributions as dist, render
        c2 = dist.chi2_quantile(0.40, 2)   # 40% coverage: radius ~1 ellipses
        return render.build_meta_panel(stack, pooled, c2, blups=blups,
                                       delta=delta,
                                       names=("PD effect", "AL effect"),
                                       title=title)
    _emit(args, payload, scene)
    return 0


def cmd_gell(args):
    from . import gellipsoid as ge
    mat = args.matrix
    center = np.array(args.center) if args.center else None
    if args.form == "moment":
        e = ge.from_moment(mat, center)
    elif args.form == "precision":
        e = ge.from_precision(mat, center)
    else:
        e = ge.from_generator(mat, center)
    d = ge.dual(e)
    payload = {
        "form": args.form,
        "matrix": mat,
        "signature": list(ge.signature(e).as_tuple()),
        "radii": e.radii,
        "center": e.center,
        "volume": ge.volume(e),
        "dual_signature": list(ge.signature(d).as_tuple()),
        "dual_radii": d.radii,
        "size_measures": ge.size_measures(e),
    }
    if args.project is not None:
        proj = ge.project(e, args.project)
        payload["projected_signature"] = list(ge.signature(proj).as_tuple())
        payload["projected_radii"] = proj.radii
    if args.conjugate:
        if args.form != "moment":
            raise InputError("--conjugate applies to the moment form")
        axes = ge.conjugate_axes(mat, args.conjugate, given=args.factor)
        payload["conjugate"] = {
            "kind": args.conjugate,
            "axes": axes.axes,
            "gram_residual": axes.gram_residual(mat),
            "parallelogram_area": axes.area(),
            "sum_sq_diameters": axes.sum_sq_diameters(),
        }
    _emit(args, payload)
    return 0


def cmd_fixtures(args):
    from . import datasets
    payload = {"fixtures": [{"name": k, "provenance": v}
                            for k, v in datasets.list_fixtures().items()],
               "directory": datasets.fixture_dir()}
    _emit(args, payload)
    return 0


# ----------------------------------------------------------------- parser

def build_parser():
    """A new parser for the `ellip` command line.

    Every default is immutable, so one parser can serve any number of
    parse_args calls (see main).
    """
    parser = argparse.ArgumentParser(
        prog="ellip",
        description="Ellipsoid calculus for linear and multivariate "
                    "model summaries; JSON numbers out, SVG figures out.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", help="write the JSON payload here")
        p.add_argument("--svg", help="write the SVG figure here")
        return p

    p = add("data-ellipse", cmd_data_ellipse,
            help="bivariate data ellipse summary")
    p.add_argument("--data", required=True)
    p.add_argument("--x", help="x column (or comma list when --y omitted)")
    p.add_argument("--y")
    p.add_argument("--level", type=float, default=0.40)
    p.set_defaults(x=None)

    p = add("decompose", cmd_decompose,
            help="within/between/marginal slope decomposition")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--columns", help="comma list, default first two numeric")

    p = add("betaspace", cmd_betaspace,
            help="confidence ellipses and shadows in coefficient space")
    p.add_argument("--data", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--predictors", help="comma list, default all numeric")
    p.add_argument("--coords", help="two coefficient names for the panel")
    p.add_argument("--alpha", type=float, default=0.05)

    p = add("avp", cmd_avp, help="added-variable geometry and VIF")
    p.add_argument("--data", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--predictors")
    p.add_argument("--k", required=True, help="predictor under study")

    p = add("measure-error", cmd_measure_error,
            help="attenuation under predictor measurement error")
    p.add_argument("--data", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--deltas", type=_floats_arg)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("heplot", cmd_heplot, help="hypothesis-error test summary")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--columns")
    p.add_argument("--coords")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--scaling", choices=["significance", "effect"],
                   default="significance")

    p = add("contrasts", cmd_contrasts,
            help="contrast decomposition of a group effect")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--columns")
    p.add_argument("--contrast", action="append", type=_floats_arg,
                   help="comma list of per-group weights; repeatable")

    p = add("canonical", cmd_canonical,
            help="canonical discriminant projection")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--columns")

    p = add("kiss", cmd_kiss, help="trace a locus of osculation")
    p.add_argument("--m1", type=_floats_arg, default=(-2.0, 2.0))
    p.add_argument("--m2", type=_floats_arg, default=(2.0, 6.0))
    p.add_argument("--a1", type=_matrix_arg,
                   default=((1.0, 0.5), (0.5, 1.5)))
    p.add_argument("--a2", type=_matrix_arg,
                   default=((1.5, -0.3), (-0.3, 1.0)))
    p.add_argument("--bbox", type=_floats_arg)
    p.add_argument("--resolution", type=int, default=96)
    p.add_argument("--mark", type=_floats_arg, default=(2.0, 3.0),
                   help="f1 radii whose kiss points are marked")

    p = add("lda", cmd_lda, help="two-group discriminant axis")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--columns")

    p = add("ridge-trace", cmd_ridge_trace,
            help="ridge path with variance ellipses")
    p.add_argument("--data", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--predictors")
    p.add_argument("--ks", type=_floats_arg)
    p.add_argument("--coords", help="two predictor names for the panel")

    p = add("bayes", cmd_bayes, help="conjugate posterior combination")
    p.add_argument("--data", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--predictors")
    p.add_argument("--prior", type=_floats_arg)
    p.add_argument("--precision", type=float, default=0.0,
                   help="scalar k for A = k I")
    p.add_argument("--precision-matrix", type=_matrix_arg)

    p = add("blup", cmd_blup, help="cluster BLUEs, GLS pool and BLUPs")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--g-diag", type=_floats_arg,
                   help="diagonal of G; default moment estimate")

    p = add("meta", cmd_meta, help="multivariate meta-analysis")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=["fixed", "random"],
                   default="fixed")
    p.add_argument("--delta", type=_matrix_arg,
                   help="between-study covariance; default moment estimate")

    p = add("gell", cmd_gell,
            help="generalized ellipsoid signature/dual/projection demo")
    p.add_argument("--matrix", type=_matrix_arg, required=True)
    p.add_argument("--form", choices=["moment", "precision", "generator"],
                   default="moment")
    p.add_argument("--center", type=_floats_arg)
    p.add_argument("--project", type=_matrix_arg)
    p.add_argument("--conjugate", choices=["given", "cholesky",
                                           "principal"])
    p.add_argument("--factor", type=_matrix_arg,
                   help="factor A for --conjugate given")

    add("fixtures", cmd_fixtures, help="list bundled data fixtures")
    return parser


def run(args):
    """Dispatch a parsed command; returns the process exit status."""
    try:
        return args.func(args)
    except InputError as exc:
        print(f"ellip: input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"ellip: numerical failure: {exc}", file=sys.stderr)
        return 3


_parser = None


def main(argv=None):
    """Run the `ellip` command line; returns the exit status.

    The parser is built on the first call and reused by later calls in
    the same process.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    return run(_parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
