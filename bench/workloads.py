"""Seeded inputs and the operations each benchmark workload runs.

Every operation is an `ellip` argument vector. Arguments of the form
``@name.csv`` name a generated input file; the driver writes those files
before timing and substitutes their paths. Operations whose outputs are
checked against recorded references draw their inputs from fixed pools
(one reference per pool member, see record.py); the run seed picks the
pool members and their order. Inputs checked against an independent
reference (the two known-defect operations) need no pool.

Each pass over a workload's operation list has the same cost whatever the
seed: pool members of one kind have the same sizes, and kiss_locus runs
every family of its pool once per pass, in a seed-chosen order and
position. Runs therefore differ in their inputs, not in their mix.
Passes of the in-process workloads other than warm_mix have an odd
number of operations (15 kiss, 9 large_n), so that the median time falls
on one operation's samples, not between two operations of different
cost.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cold_cli", "warm_mix", "kiss_locus", "large_n")

# Fixed tag mixed into every generator seed, so that pools and run inputs
# come from separate random streams.
TAG = 1302

LDA_POOL = 8              # two-species iris subsets
ME_SEED_POOL = 8          # values of measure-error --seed
KISS_FAMILIES = 5         # family pairs traced once per pass
# Translations of a family pair; the locus grid moves with the centres,
# so every position of a family costs the same.
KISS_SHIFTS = ((0.0, 0.0), (3.25, -1.5), (-2.75, 4.0), (5.5, 2.25))
KISS_RESOLUTIONS = (64, 96, 128)
LARGE_POOL = 2            # variants of the large_n reference inputs

LARGE_ROWS = 20_000       # bivariate and grouped tables
LARGE_AVP_ROWS = 5_000
LARGE_CLUSTERS = 200      # blup clusters
LARGE_STUDIES = 200       # meta-analysis studies


@dataclass(frozen=True)
class Op:
    """One `ellip` invocation and how its output is checked.

    check is "ref" (compare with the recorded reference of `group`),
    "longley" (exact OLS on the Longley rows) or "pooled_blup" (the
    complete-pooling limit computed from the input file). meta carries
    counts the traced run compares with call counts.
    """
    argv: tuple
    group: str
    check: str = "ref"
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def sub(self):
        return self.argv[0]

    @property
    def key(self):
        return " ".join(self.argv)

    @property
    def known_defect(self):
        return self.check != "ref"


@dataclass
class Plan:
    inputs: dict          # file name -> CSV text
    ops: list             # one pass, in order


def _fmt_vec(v):
    return ",".join(f"{float(x):g}" for x in v)


def _fmt_mat(a):
    return ";".join(_fmt_vec(row) for row in a)


def _csv(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ------------------------------------------------------- fixture workloads

def lda_subset(iris_text, index):
    """Two of the three iris species, 30 seeded rows of each."""
    rows = list(csv.reader(io.StringIO(iris_text)))
    header, body = rows[0], rows[1:]
    species = sorted({r[-1] for r in body})
    pair = [s for k, s in enumerate(species) if k != index % 3]
    rng = np.random.default_rng([TAG, 2, index])
    out = []
    for s in pair:
        members = [r for r in body if r[-1] == s]
        pick = np.sort(rng.choice(len(members), 30, replace=False))
        out.extend(members[i] for i in pick)
    return _csv(header, out)


# The moment G of hsb-sample has a zero eigenvalue; blup inverts it and
# returns BLUPs outside the range between each BLUE and the GLS pool.
HSB_SAMPLE_BLUP = Op(("blup", "--data", "hsb-sample", "--group", "school",
                      "--x", "cses", "--response", "mathach"), "pooled_blup",
                     check="pooled_blup", meta={"clusters": 20})


def fixture_ops(lda, me_seed):
    """The 15 subcommands other than kiss on bundled fixtures."""
    g = "fixtures"
    return [
        Op(("data-ellipse", "--data", "galton", "--level", "0.68"), g),
        Op(("decompose", "--data", "iris", "--group", "Species"), g),
        Op(("betaspace", "--data", "synthetic-coffee", "--response", "Heart",
            "--coords", "Coffee,Stress"), g),
        Op(("avp", "--data", "synthetic-coffee", "--response", "Heart",
            "--k", "Coffee"), g),
        Op(("measure-error", "--data", "galton", "--response", "child",
            "--x", "parent", "--seed", str(me_seed)), g),
        Op(("heplot", "--data", "iris", "--group", "Species",
            "--coords", "SepalLength,PetalLength"), g),
        Op(("contrasts", "--data", "iris", "--group", "Species",
            "--contrast=-2,1,1", "--contrast=0,1,-1"), g),
        Op(("canonical", "--data", "iris", "--group", "Species"), g),
        Op(("lda", "--data", f"@lda-{lda}.csv", "--group", "Species"), g),
        Op(("ridge-trace", "--data", "longley", "--response", "Employed",
            "--coords", "GNP,Unemployed"), g),
        Op(("bayes", "--data", "longley", "--response", "Employed",
            "--precision", "0.02"), g),
        HSB_SAMPLE_BLUP,
        Op(("meta", "--data", "berkey", "--model", "random"), g),
        Op(("gell", "--matrix", "6,2,1;2,3,0;1,0,2", "--form", "moment",
            "--project", "1,0,0;0,1,0;0,0,0", "--conjugate", "cholesky"), g),
        Op(("fixtures",), g),
    ]


# Longley betaspace exits 3: the inverse of the ill-conditioned X'X is
# not symmetric enough to pass the symmetry check.
LONGLEY_BETASPACE = Op(("betaspace", "--data", "longley", "--response",
                        "Employed"), "longley", check="longley")


def _fixture_plan(workload, seed, iris_text):
    rng = np.random.default_rng([TAG, 0, seed])
    lda = int(rng.integers(LDA_POOL))
    me_seed = int(rng.integers(ME_SEED_POOL))
    ops = fixture_ops(lda, me_seed)
    if workload == "warm_mix":
        ops.insert(3, LONGLEY_BETASPACE)
    return Plan({f"lda-{lda}.csv": lda_subset(iris_text, lda)}, ops)


# ------------------------------------------------------------- kiss_locus

def kiss_family(index, shift):
    """Argument list of one seeded pair of positive-definite families.

    Centres lie 2.5-5 apart; the two marked f1 radii are fixed fractions
    of the f1 radius of the other centre, so both kiss points exist.
    The pair is translated by KISS_SHIFTS[shift].
    """
    rng = np.random.default_rng([TAG, 1, index])

    def spd():
        th = rng.uniform(0.0, np.pi)
        lam = rng.uniform(0.5, 2.0, 2)
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        a = r @ np.diag(lam) @ r.T
        return np.round(0.5 * (a + a.T), 4)

    m1 = np.round(rng.uniform(-3.0, 3.0, 2), 3)
    d = rng.uniform(2.5, 5.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    m2 = np.round(m1 + d * np.array([np.cos(phi), np.sin(phi)]), 3)
    a1, a2 = spd(), spd()
    m1, m2 = m1 + KISS_SHIFTS[shift], m2 + KISS_SHIFTS[shift]
    reach = float(np.sqrt((m2 - m1) @ a1 @ (m2 - m1)))
    marks = np.round(reach * np.array([0.35, 0.7]), 3)
    # "--m1=-2,2": argparse reads "--m1 -2,2" as a missing argument
    return (f"--m1={_fmt_vec(m1)}", f"--m2={_fmt_vec(m2)}",
            f"--a1={_fmt_mat(a1)}", f"--a2={_fmt_mat(a2)}",
            f"--mark={_fmt_vec(marks)}")


def kiss_op(index, shift, resolution):
    return Op(("kiss", *kiss_family(index, shift),
               "--resolution", str(resolution)), "kiss", meta={"marks": 2})


def _kiss_plan(seed):
    rng = np.random.default_rng([TAG, 0, seed])
    order = rng.permutation(KISS_FAMILIES)
    shifts = rng.integers(len(KISS_SHIFTS), size=KISS_FAMILIES)
    return Plan({}, [kiss_op(int(i), int(shifts[i]), res)
                     for i in order for res in KISS_RESOLUTIONS])


# ---------------------------------------------------------------- large_n

def large_inputs(variant):
    """The large_n reference inputs of one pool variant."""
    rng = np.random.default_rng([TAG, 3, variant])
    n = LARGE_ROWS
    files = {}

    u = rng.normal(10.0, 2.0, n)
    v = 3.0 + 0.6 * u + rng.normal(0.0, 1.5, n)
    files[f"biv-{variant}.csv"] = _csv(
        ["u", "v"], ([f"{a:.6f}", f"{b:.6f}"] for a, b in zip(u, v)))

    grp = np.arange(n) % 5
    means = rng.normal(0.0, 0.3, (5, 4))
    mix = rng.normal(0.0, 1.0, (4, 4)) + 2.0 * np.eye(4)
    y = means[grp] + rng.normal(0.0, 1.0, (n, 4)) @ mix.T
    files[f"grp-{variant}.csv"] = _csv(
        ["y1", "y2", "y3", "y4", "grp"],
        ([*(f"{v:.6f}" for v in row), f"g{k}"] for row, k in zip(y, grp)))

    m = LARGE_AVP_ROWS
    x = rng.normal(0.0, 1.0, (m, 3))
    x[:, 1] += 0.7 * x[:, 0]
    yy = x @ np.array([1.0, -0.5, 0.3]) + rng.normal(0.0, 1.0, m)
    files[f"avp-{variant}.csv"] = _csv(
        ["x1", "x2", "x3", "y"],
        ([*(f"{v:.6f}" for v in row), f"{w:.6f}"] for row, w in zip(x, yy)))

    rows = []
    for i in range(LARGE_CLUSTERS):
        n_i = 25 + (7 * i) % 36
        b0 = 12.0 + rng.normal(0.0, 2.5)
        b1 = 2.5 + rng.normal(0.0, 0.8)      # positive slope variance
        ses = rng.normal(0.0, 0.8, n_i)
        ses -= ses.mean()
        yv = b0 + b1 * ses + rng.normal(0.0, 6.0, n_i)
        rows.extend([f"s{i:03d}", f"{a:.6f}", f"{b:.6f}"]
                    for a, b in zip(ses, yv))
    files[f"hsb-{variant}.csv"] = _csv(["school", "cses", "mathach"], rows)

    rows = []
    for i in range(LARGE_STUDIES):
        v1, v2 = rng.uniform(0.001, 0.008, 2)
        c = rng.uniform(-0.5, 0.8) * np.sqrt(v1 * v2)
        b = rng.multivariate_normal([0.3, -0.4], [[0.01, 0.005],
                                                   [0.005, 0.01]])
        e = rng.multivariate_normal(b, [[v1, c], [c, v2]])
        rows.append([f"t{i:03d}", f"{e[0]:.6f}", f"{e[1]:.6f}",
                     f"{v1:.6f}", f"{c:.6f}", f"{v2:.6f}"])
    files[f"meta-{variant}.csv"] = _csv(
        ["trial", "effect_PD", "effect_AL", "var_PD", "cov_PD_AL", "var_AL"],
        rows)
    return files


def orthogonal_clusters(seed):
    """Clusters whose residuals are exactly orthogonal to their designs.

    Each cluster is built from quadruples x = (-a, -b, b, a) with
    residuals (c, -c, -c, c), all multiples of 1/16, so every sum the fit
    forms is exact: each cluster's BLUE slope equals the common slope
    2.25 while the intercepts vary. The moment estimate of G is then
    clipped to a singular matrix.
    """
    rng = np.random.default_rng([TAG, 4, seed])
    rows = []
    for i in range(LARGE_CLUSTERS):
        b0 = int(rng.integers(120, 260)) / 16
        for _ in range(6 + i % 10):
            a, b = np.sort(rng.integers(1, 24, 2)) / 16
            c = int(rng.integers(-96, 97)) / 16
            for x, e in ((-a, c), (-b, -c), (b, -c), (a, c)):
                rows.append([f"c{i:03d}", repr(float(x)),
                             repr(float(b0 + 2.25 * x + e))])
    return _csv(["cluster", "x", "y"], rows)


def large_ops(variant, me_seed):
    g = f"large-{variant}"
    return [
        Op(("data-ellipse", "--data", f"@biv-{variant}.csv"), g),
        Op(("measure-error", "--data", f"@biv-{variant}.csv", "--response",
            "v", "--x", "u", "--seed", str(me_seed)), g),
        Op(("heplot", "--data", f"@grp-{variant}.csv", "--group", "grp"), g),
        Op(("canonical", "--data", f"@grp-{variant}.csv", "--group", "grp"),
           g),
        Op(("avp", "--data", f"@avp-{variant}.csv", "--response", "y",
            "--k", "x2"), g),
        Op(("blup", "--data", f"@hsb-{variant}.csv", "--group", "school",
            "--x", "cses", "--response", "mathach"), g,
           meta={"clusters": LARGE_CLUSTERS}),
        Op(("blup", "--data", f"@hsb-{variant}.csv", "--group", "school",
            "--x", "cses", "--response", "mathach", "--g-diag", "6.25,0.64"),
           g, meta={"clusters": LARGE_CLUSTERS}),
        Op(("meta", "--data", f"@meta-{variant}.csv", "--model", "random"),
           g),
    ]


# blup on orthogonal_clusters exits 3: it inverts the singular moment G.
ORTHOGONAL_BLUP = Op(("blup", "--data", "@orthogonal.csv", "--group",
                      "cluster", "--x", "x", "--response", "y"),
                     "pooled_blup", check="pooled_blup",
                     meta={"clusters": LARGE_CLUSTERS})


def _large_plan(seed):
    rng = np.random.default_rng([TAG, 0, seed])
    variant = int(rng.integers(LARGE_POOL))
    inputs = large_inputs(variant)
    inputs["orthogonal.csv"] = orthogonal_clusters(seed)
    ops = large_ops(variant, variant)
    ops.insert(7, ORTHOGONAL_BLUP)
    return Plan(inputs, ops)


# ------------------------------------------------------------------ public

def plan(workload, seed, iris_text):
    """Inputs and one pass of operations for a workload and seed."""
    if workload in ("cold_cli", "warm_mix"):
        return _fixture_plan(workload, seed, iris_text)
    if workload == "kiss_locus":
        return _kiss_plan(seed)
    if workload == "large_n":
        return _large_plan(seed)
    raise ValueError(f"unknown workload {workload!r}")


def reference_pool(group, iris_text):
    """Every input and operation whose output reference lives in `group`."""
    if group == "fixtures":
        inputs = {f"lda-{k}.csv": lda_subset(iris_text, k)
                  for k in range(LDA_POOL)}
        ops = {}
        for k in range(max(LDA_POOL, ME_SEED_POOL)):
            for op in fixture_ops(k % LDA_POOL, k % ME_SEED_POOL):
                if op.check == "ref":
                    ops[op.key] = op
        return Plan(inputs, list(ops.values()))
    if group == "kiss":
        return Plan({}, [kiss_op(i, r, res) for i in range(KISS_FAMILIES)
                         for r in range(len(KISS_SHIFTS))
                         for res in KISS_RESOLUTIONS])
    if group.startswith("large-"):
        variant = int(group.split("-")[1])
        return Plan(large_inputs(variant), large_ops(variant, variant))
    raise ValueError(f"unknown reference group {group!r}")


def reference_groups():
    return ["fixtures", "kiss"] + [f"large-{v}" for v in range(LARGE_POOL)]
