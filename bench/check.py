"""Output checks: recorded references and two independent references.

A recorded reference holds an operation's exit status, its JSON text and
its SVG split into a skeleton (the text with every number replaced by a
NUL) and the numbers themselves.

JSON: keys, key order, strings, integers, booleans and null must match
exactly. A float must agree to a relative 1e-9, relative to the largest
magnitude in its enclosing numeric vector or matrix (so that an entry
that is zero up to rounding compares with its neighbours' scale). Keys
that hold residuals by design are checked against an upper bound.

SVG: the skeleton must match exactly, so the element sequence,
attribute names and text are the same. A number printed with decimals
must agree within 2 units of its last printed place; an integer token
(font sizes, dash patterns, integral tick labels) must match exactly.
"""

import json
import lzma
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "refs"
ROOT_MARK = "<root>"
REL_TOL = 1e-9

# Numbers outside hex colours and identifiers.
_NUM = re.compile(r"(?<![#\w.])-?\d+(?:\.\d+)?")


def _residual_bound(key, obj):
    """Upper bound for a residual-by-design key, from its payload."""
    if key == "max_abs_g":
        return 1e-6 * float(obj["scale"])
    if key == "additivity_residual":
        return 1e-8 * float(np.abs(np.asarray(obj["h_overall"])).max())
    return {"residual_match": 1e-8, "slope_matches_full_model": 1e-8,
            "additivity_relative": 1e-8, "gram_residual": 1e-10}[key]


RESIDUAL_KEYS = ("max_abs_g", "residual_match", "slope_matches_full_model",
                 "additivity_residual", "additivity_relative",
                 "gram_residual")


class _Obj(list):
    """A JSON object as its ordered (key, value) pairs."""


def _loads(text):
    return json.loads(text, object_pairs_hook=_Obj)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numeric_leaves(v):
    if _is_number(v):
        return [abs(float(v))]
    if isinstance(v, list) and not isinstance(v, _Obj):
        out = []
        for item in v:
            leaves = _numeric_leaves(item)
            if leaves is None:
                return None
            out.extend(leaves)
        return out
    return None


def _compare(ref, out, path, scale, problems):
    if len(problems) >= 3:
        return
    if isinstance(ref, _Obj):
        if not isinstance(out, _Obj):
            problems.append(f"{path}: expected an object")
            return
        keys = [k for k, _ in ref]
        if [k for k, _ in out] != keys:
            problems.append(f"{path}: keys {[k for k, _ in out]} != {keys}")
            return
        out_obj = dict(out)
        for (key, rv), (_, ov) in zip(ref, out):
            sub = f"{path}.{key}"
            if key in RESIDUAL_KEYS:
                bound = _residual_bound(key, out_obj)
                if not (_is_number(ov) and 0 <= ov <= bound):
                    problems.append(f"{sub}: {ov!r} exceeds bound {bound:.3g}")
            else:
                _compare(rv, ov, sub, None, problems)
        return
    if isinstance(ref, list):
        if not isinstance(out, list) or isinstance(out, _Obj) \
                or len(out) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        if scale is None:
            leaves = _numeric_leaves(ref)
            if leaves:
                scale = max(leaves)
        for i, (rv, ov) in enumerate(zip(ref, out)):
            _compare(rv, ov, f"{path}[{i}]", scale, problems)
        return
    if _is_number(ref) and _is_number(out) and \
            not (isinstance(ref, int) and isinstance(out, int)):
        tol = REL_TOL * max(abs(ref), abs(out), scale or 0.0)
        if not abs(ref - out) <= tol:
            problems.append(f"{path}: {out!r} != {ref!r}")
        return
    if type(ref) is not type(out) or ref != out:
        problems.append(f"{path}: {out!r} != {ref!r}")


def compare_json(ref_text, out_text, root):
    """Problems found comparing an output payload with its reference."""
    try:
        out = _loads(out_text.replace(str(root), ROOT_MARK))
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    problems = []
    _compare(_loads(ref_text), out, "$", None, problems)
    return problems


def split_svg(text):
    """(skeleton, numbers) of an SVG document."""
    return _NUM.sub("\0", text), _NUM.findall(text)


class SvgRef:
    def __init__(self, skeleton, numbers):
        self.skeleton = skeleton
        tokens = numbers.split()
        self.values = np.array(tokens, dtype=float)
        self.tol = np.array([2.0 * 10.0 ** -len(t.partition(".")[2])
                             if "." in t else 0.0 for t in tokens])

    def compare(self, text):
        skeleton, numbers = split_svg(text)
        if skeleton != self.skeleton:
            at = next((i for i, (a, b) in enumerate(zip(skeleton,
                                                        self.skeleton))
                       if a != b), min(len(skeleton), len(self.skeleton)))
            return ["svg element sequence differs near "
                    f"{skeleton[at:at + 60]!r}"]
        values = np.array(numbers, dtype=float)
        bad = np.flatnonzero(np.abs(values - self.values) > self.tol + 1e-12)
        if bad.size:
            i = int(bad[0])
            return [f"svg: {bad.size} numbers off, first {numbers[i]} "
                    f"!= {self.values[i]:g}"]
        return []


class Reference:
    def __init__(self, entry):
        self.exit = entry["exit"]
        self.json = entry["json"]
        self.svg = SvgRef(*entry["svg"]) if entry["svg"] else None


def ref_path(group):
    return REF_DIR / f"{group}.json.xz"


def load_refs(group):
    with lzma.open(ref_path(group), "rt", encoding="utf-8") as f:
        return {k: Reference(v) for k, v in json.load(f).items()}


def save_refs(group, entries):
    REF_DIR.mkdir(exist_ok=True)
    with lzma.open(ref_path(group), "wt", encoding="utf-8", preset=9) as f:
        json.dump(entries, f, separators=(",", ":"), sort_keys=True)


def check_ref(ref, code, json_text, svg_text, root):
    if code != ref.exit:
        return [f"exit {code}, reference {ref.exit}"]
    problems = compare_json(ref.json, json_text, root)
    if ref.svg is None:
        if svg_text is not None:
            problems.append("unexpected SVG")
    elif svg_text is None:
        problems.append("SVG missing")
    else:
        problems += ref.svg.compare(svg_text)
    return problems


# ------------------------------------------------- independent references

def _read_table(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _solve_exact(a, b):
    """Gauss-Jordan on Fractions: (a^{-1} b, a^{-1})."""
    n = len(a)
    aug = [row[:] + [b[i]] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n] for row in aug], [row[n + 1:] for row in aug]


def longley_reference(csv_text, response="Employed"):
    """Exact OLS of the response on every other column, plus intercept."""
    header, rows = _read_table(csv_text)
    j_y = header.index(response)
    preds = [h for h in header if h != response]
    x = [[Fraction(1)] + [Fraction(r[header.index(h)]) for h in preds]
         for r in rows]
    y = [Fraction(r[j_y]) for r in rows]
    q = len(x[0])
    xtx = [[sum(row[i] * row[j] for row in x) for j in range(q)]
           for i in range(q)]
    xty = [sum(row[i] * v for row, v in zip(x, y)) for i in range(q)]
    beta, inv = _solve_exact(xtx, xty)
    rss = sum((v - sum(b * xi for b, xi in zip(beta, row))) ** 2
              for row, v in zip(x, y))
    s2 = rss / (len(rows) - q)
    names = ["intercept"] + preds
    return {"predictors": preds,
            "coef": dict(zip(names, (float(b) for b in beta))),
            "se": {n: math.sqrt(float(s2 * inv[i][i]))
                   for i, n in enumerate(names)},
            "df": len(rows) - q, "s2": float(s2)}


BETASPACE_KEYS = ["response", "predictors", "coef", "se", "df", "s2",
                  "coords", "joint_ellipse", "ci_intervals",
                  "scheffe_intervals", "joint_test_rejects_zero"]
LONGLEY_TOL = 1e-7      # relative; cond(X) is about 2e7


def check_longley(expected, code, json_text, svg_text):
    if code != 0:
        return [f"exit {code}"]
    out = json.loads(json_text)
    if list(out) != BETASPACE_KEYS:
        return [f"keys {list(out)}"]
    problems = []
    if out["predictors"] != expected["predictors"] or \
            out["df"] != expected["df"]:
        problems.append("predictors or df differ")
    for key in ("coef", "se"):
        if list(out[key]) != list(expected[key]):
            problems.append(f"{key}: names differ")
            continue
        for name, ref in expected[key].items():
            if not abs(out[key][name] - ref) <= LONGLEY_TOL * abs(ref):
                problems.append(f"{key}.{name}: {out[key][name]!r} != {ref!r}")
    if not abs(out["s2"] - expected["s2"]) <= LONGLEY_TOL * expected["s2"]:
        problems.append(f"s2: {out['s2']!r} != {expected['s2']!r}")
    if svg_text is None or not svg_text.startswith("<?xml"):
        problems.append("SVG missing")
    return problems


def pooled_blup_reference(csv_text):
    """BLUEs, moment G, GLS pool and BLUPs of an (x, y) cluster table.

    BLUP_i = b_gls + G (S_i + G)^{-1} (b_i - b_gls), which stays defined
    when G is singular: along an eigenvector of G with eigenvalue 0 every
    BLUP is pooled completely onto the GLS estimate (for clusters with
    orthogonal residuals, along the slope).
    """
    header, rows = _read_table(csv_text)
    by = {}
    for lab, x, y in rows:
        by.setdefault(lab, []).append((float(x), float(y)))
    labels = sorted(by)
    designs, ys = [], []
    for lab in labels:
        arr = np.array(by[lab])
        designs.append(np.column_stack([np.ones(len(arr)), arr[:, 0]]))
        ys.append(arr[:, 1])
    blues, rss, df = [], 0.0, 0
    for x, y in zip(designs, ys):
        b = np.linalg.lstsq(x, y, rcond=None)[0]
        r = y - x @ b
        blues.append(b)
        rss += float(r @ r)
        df += len(y) - 2
    s2 = rss / df
    s_mats = [s2 * np.linalg.inv(x.T @ x) for x in designs]
    blues = np.array(blues)
    dev = blues - blues.mean(axis=0)
    raw = dev.T @ dev / (len(blues) - 1) - sum(s_mats) / len(blues)
    lam, vec = np.linalg.eigh(0.5 * (raw + raw.T))
    g = (vec * np.clip(lam, 0.0, None)) @ vec.T
    a, rhs = np.zeros((2, 2)), np.zeros(2)
    for x, y in zip(designs, ys):
        v = x @ g @ x.T + s2 * np.eye(len(y))
        a += x.T @ np.linalg.solve(v, x)
        rhs += x.T @ np.linalg.solve(v, y)
    gls_cov = np.linalg.inv(a)
    gls = gls_cov @ rhs
    blups = [gls + g @ np.linalg.solve(s + g, b - gls)
             for s, b in zip(s_mats, blues)]
    return {"labels": labels, "sigma2": s2, "g": g, "gls": gls,
            "gls_cov": gls_cov, "blues": blues, "blups": np.array(blups),
            "null": vec[:, lam <= 0]}


POOLED_TOL = 1e-8


def _close(out, ref, scale=None):
    out, ref = np.asarray(out, dtype=float), np.asarray(ref, dtype=float)
    s = np.abs(ref).max() if scale is None else scale
    return out.shape == ref.shape and \
        bool(np.all(np.abs(out - ref) <= POOLED_TOL * s))


def check_pooled_blup(expected, code, json_text, svg_text):
    if code != 0:
        return [f"exit {code}"]
    out = json.loads(json_text)
    problems = []
    if out["n_clusters"] != len(expected["labels"]) or out["skipped"]:
        problems.append("cluster count")
    for key, ref in (("sigma2", expected["sigma2"]),
                     ("g_matrix", expected["g"]),
                     ("gls_beta", expected["gls"]),
                     ("gls_cov", expected["gls_cov"])):
        if not _close(out[key], ref):
            problems.append(f"{key}: {out[key]} != {ref}")
    clusters = out["clusters"]
    if [c["label"] for c in clusters] != expected["labels"]:
        return problems + ["cluster labels"]
    blue = np.array([c["blue"] for c in clusters])
    blup = np.array([c["blup"] for c in clusters])
    if not _close(blue, expected["blues"]):
        problems.append("BLUEs differ")
    if not _close(blup, expected["blups"]):
        problems.append("BLUPs differ from b_gls + G (S + G)^-1 (b - b_gls)")
    along_null = (blup - expected["gls"]) @ expected["null"]
    if not _close(along_null, np.zeros_like(along_null),
                  scale=np.abs(expected["blups"]).max()):
        problems.append("BLUPs not pooled along the null space of G")
    return problems


# operation check name -> (reference from the input CSV text, checker)
INDEPENDENT = {"longley": (longley_reference, check_longley),
               "pooled_blup": (pooled_blup_reference, check_pooled_blup)}
