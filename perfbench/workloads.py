"""Seeded input generators for the benchmark workloads.

Each workload is an endless, deterministic stream of CLI operations.  The
seed fixes every input; nevlab sees only the JSON files written here, through
the argv of `nevlab.cli.main`.  Op kinds and sizes follow a fixed cycle
(CYCLE ops long) and a run ends on a cycle boundary, so every run has the
same mix; map degrees are part of the cycle, product bases run through
strata in seeded order.  Every op gets its own input (fresh quadrature seed or
fresh coefficients): no op repeats an earlier one, so a cache across calls
would not be rewarded.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List

import numpy as np

WORKLOADS = ("hypersurface_product", "rational_maps", "exact_algebra")
# runnable like the others, but not in BENCHMARK.json: ops there are
# expected to fail until the defects named at DEFECT_PATTERN are fixed
UNTIMED = ("known_defects",)


@dataclass
class Op:
    """One CLI call: `kind` selects the output check, `ctx` feeds it."""

    kind: str
    argv: List[str]
    ctx: Dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# JSON helpers (the nevlab-run/1 on-disk format)
# ---------------------------------------------------------------------------

def poly(nvars: int, terms) -> dict:
    """Polynomial JSON from (exponents, coefficient) pairs, zeros dropped."""
    return {"nvars": nvars,
            "terms": [{"exps": list(e), "re": str(c), "im": "0"}
                      for e, c in terms if c]}


def hyperplane(coeffs) -> dict:
    n1 = len(coeffs)
    return poly(n1, [(tuple(int(i == k) for i in range(n1)), c)
                     for k, c in enumerate(coeffs)])


def monomials(nvars: int, degree: int):
    """Exponent tuples of total degree exactly `degree`."""
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        yield tuple(combo.count(i) for i in range(nvars))


def monomials_upto(nvars: int, degree: int):
    for d in range(degree + 1):
        yield from monomials(nvars, d)


def random_poly(rng: random.Random, nvars: int, degree: int, height: int,
                nterms: int) -> dict:
    """A polynomial of exact total degree `degree` with `nterms` terms and
    nonzero integer coefficients in [-height, height]."""
    top = list(monomials(nvars, degree))
    rest = [e for e in monomials_upto(nvars, degree) if sum(e) < degree]
    chosen = [rng.choice(top)] + rng.sample(rest, min(nterms - 1, len(rest)))
    return poly(nvars, [(e, rng.choice([c for c in range(-height, height + 1)
                                        if c])) for e in chosen])


def general_position_hyperplanes(rng: random.Random, count: int,
                                 n1: int = 3, height: int = 3) -> List[dict]:
    """`count` integer hyperplanes in P^(n1-1), any n1 of them independent."""
    while True:
        vecs = [[rng.randint(-height, height) for _ in range(n1)]
                for _ in range(count)]
        if all(abs(np.linalg.det(np.array([vecs[i] for i in sub], float)))
               > 0.5 for sub in itertools.combinations(range(count), n1)):
            return [hyperplane(v) for v in vecs]


def eval_poly(pj: dict, z: np.ndarray) -> complex:
    """Evaluate polynomial JSON at a point, independently of nevlab."""
    out = 0j
    for t in pj["terms"]:
        c = complex(float(Fraction(t["re"])), float(Fraction(t["im"])))
        out += c * np.prod(np.asarray(z, complex) ** np.asarray(t["exps"]))
    return out


# ---------------------------------------------------------------------------
# workload streams
# ---------------------------------------------------------------------------

class _Writer:
    """Writes numbered input files into one work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def __call__(self, stem: str, obj) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:05d}_{stem}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path


Q22 = {"q": [["2", "0"], ["2", "0"]]}
Q1 = {"q": [["2", "0"]]}
# bases from quick to slow Pochhammer convergence; an alpha-4 op costs about
# 0.27 s on pairs without 3/5 and 0.37 s on pairs with it, so every run
# holds whole passes over the six ordered pairs (see CYCLE)
PRODUCT_BASES = ("1/4", "1/2", "3/5")
# the four conics of the gallery's hypersurface case (general position)
GALLERY_CONICS = [
    poly(3, [((0, 2, 0), 1), ((1, 0, 1), -1)]),
    poly(3, [((0, 0, 2), 1), ((1, 1, 0), -1)]),
    poly(3, [((2, 0, 0), 1), ((0, 2, 0), 2), ((0, 0, 2), 3)]),
    poly(3, [((2, 0, 0), 1), ((0, 1, 1), 1)]),
]


def _strata(rng: random.Random, values) -> Iterator:
    """Endless passes over `values`, each pass in a fresh seeded order:
    every run draws each stratum equally often, whatever its seed."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def product_map(a: str, b: str) -> dict:
    """[1 : (a; z1)_inf : (b; z2)_inf]."""
    return {"components": [
        poly(2, [((0, 0), 1)]),
        {"qbase": [a, "0"], "linear": poly(2, [((1, 0), 1)])},
        {"qbase": [b, "0"], "linear": poly(2, [((0, 1), 1)])}]}


HYPERSURFACE_PATTERN = (("hypersurface", 4), ("cartan", 0),
                        ("hypersurface", 6), ("hypersurface", 4),
                        ("hsmt", 0), ("hypersurface", 6))


def hypersurface_product(rng: random.Random, write: _Writer,
                         tiny: bool = False) -> Iterator[Op]:
    """verify hypersurface at alpha 4 and 6 (M = 15, 28) on product maps,
    interleaved with verify cartan / hsmt on the same kind of map; 1 line
    x 64 theta, grid 10:1000:3.  The bases run through all 6 ordered pairs
    of PRODUCT_BASES in seeded order.  The three op classes take equal
    shares, so the median op sits inside the alpha-4 class rather than on
    the edge between two classes."""
    lines, theta = (1, 16) if tiny else (1, 64)
    # the bases set the Pochhammer term counts, so each op class runs
    # through all pairs on its own and every class has the same cost mix
    pairs = {c: _strata(rng, itertools.permutations(PRODUCT_BASES, 2))
             for c in sorted(set(HYPERSURFACE_PATTERN))}
    for i in itertools.count():
        kind, alpha = HYPERSURFACE_PATTERN[i % len(HYPERSURFACE_PATTERN)]
        quad = {"lines": lines, "theta": theta, "seed": rng.randrange(10**6)}
        cfg = {"schema": "nevlab-run/1",
               "map": product_map(*next(pairs[kind, alpha])),
               "q": Q22, "grid": "10:1000:3", "quad": quad}
        if kind == "hypersurface":
            alpha = 2 if tiny else alpha
            cfg.update(forms=GALLERY_CONICS, alpha=alpha)
            yield Op(kind, ["verify", kind, "--config", write("hyper", cfg)],
                     {"alpha": alpha, "n": 2, "grid_len": 3})
        else:
            cfg["hyperplanes"] = general_position_hyperplanes(rng, 4)
            yield Op(kind, ["verify", kind, "--config", write(kind, cfg)],
                     {"grid_len": 3})


def _homogeneous_parts(pj: dict, z) -> List[complex]:
    """Values at z of the degree-0..3 homogeneous parts of a polynomial."""
    parts = [0j] * 4
    for t in pj["terms"]:
        parts[sum(t["exps"])] += float(Fraction(t["re"])) * \
            np.prod(np.asarray(z, complex) ** np.asarray(t["exps"]))
    return parts


def _casoratian_nonzero(comps: List[dict], rng: random.Random) -> bool:
    """For q = (s, s), row k of the Casorati matrix is sum_d s^(kd) F_d with
    F_d the degree-d homogeneous parts, so by Cauchy-Binet the Casoratian
    is nonzero iff some choice of three degrees gives det F_S != 0 (the
    terms have distinct total degrees and cannot cancel)."""
    z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    F = np.array([_homogeneous_parts(c, z) for c in comps]).T  # (4, 3)
    for S in itertools.combinations(range(4), 3):
        sub = F[list(S)]
        scale = np.prod(np.linalg.norm(sub, axis=1))
        if scale > 0 and abs(np.linalg.det(sub)) > 1e-8 * scale:
            return True
    return False


def _poly_map(rng: random.Random, degrees) -> dict:
    """Three polynomials in two variables of the given degrees, three terms
    each, coefficients in [-3, 3], linearly nondegenerate under q = (2, 2)."""
    while True:
        comps = [random_poly(rng, 2, d, 3, 3) for d in degrees]
        if _casoratian_nonzero(comps, rng):
            return {"components": comps}


# (kind, component degrees).  Each cycle runs every degree stratum once in
# each op class: an op's cost follows its number of cubic components (a
# cartan op takes about 0.26 s with one and 0.38 s with two), so strata
# drawn by seed would move the median and tail with the seed.
RATIONAL_PATTERN = (("cartan", (1, 2, 3)), ("hsmt", (2, 3, 3)),
                    ("cartan", (2, 2, 3)), ("hsmt", (1, 3, 3)),
                    ("cartan", (1, 3, 3)), ("hsmt", (2, 2, 3)),
                    ("cartan", (2, 3, 3)), ("hsmt", (1, 2, 3)))

# The two op kinds of the rational-map regime that fail on some or all
# inputs through known nevlab defects: every `nev` CSV prints numpy
# scalars as `np.float64(...)`, and some `gundersen` residuals drift while
# the report gives err = 0 (root multiplicities).  They run, with the same
# checks, in the `known_defects` workload, which is kept out of the timed
# set because an op there is expected to fail.  nev costs about the same at
# every degree and draws its degrees by seed.
DEFECT_PATTERN = (("gundersen", (1, 2, 2)), ("gundersen", (2, 2, 2)),
                  ("gundersen", (1, 1, 2)), ("nev", None))


def _rational_stream(pattern, rng: random.Random, write: _Writer,
                     tiny: bool) -> Iterator[Op]:
    """Ops of `pattern` on seeded polynomial maps C^2 -> P^2 with five
    hyperplanes (nev: rational functions with poles); 64 lines x 512 theta
    (the CLI default), grid 10:10000:5.  Map degrees follow the pattern;
    coefficients, terms, hyperplanes and the function degrees of nev are
    drawn by seed."""
    lines, theta = (2, 32) if tiny else (64, 512)
    fn_degrees = _strata(rng, [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
    for i in itertools.count():
        kind, degrees = pattern[i % len(pattern)]
        quad = {"lines": lines, "theta": theta, "seed": rng.randrange(10**6)}
        if kind == "nev":
            dn, dd = next(fn_degrees)
            fn = {"num": random_poly(rng, 2, dn, 3, 3),
                  "den": random_poly(rng, 2, dd, 3, 2)}
            yield Op("nev", ["nev", "--fn", write("fn", fn),
                             "--grid", "10:10000:5",
                             "--lines", str(lines), "--theta", str(theta),
                             "--seed", str(quad["seed"])],
                     {"grid_len": 5, "deg_num": dn, "deg_den": dd})
            continue
        degrees = list(degrees)
        rng.shuffle(degrees)
        cfg = {"schema": "nevlab-run/1", "map": _poly_map(rng, degrees),
               "hyperplanes": general_position_hyperplanes(rng, 5),
               "q": Q22, "grid": "10:10000:5", "quad": quad}
        yield Op(kind, ["verify", kind, "--config", write(kind, cfg)],
                 {"grid_len": 5})


def rational_maps(rng: random.Random, write: _Writer,
                  tiny: bool = False) -> Iterator[Op]:
    """verify cartan / hsmt on polynomial maps C^2 -> P^2 of degree <= 3."""
    return _rational_stream(RATIONAL_PATTERN, rng, write, tiny)


def known_defects(rng: random.Random, write: _Writer,
                  tiny: bool = False) -> Iterator[Op]:
    """verify gundersen on maps of degree <= 2 and nev --fn; not timed.

    Gundersen maps stop at degree 2: its exact product of the five
    hyperplane compositions over the Casoratian grows to tens of seconds
    for some degree-3 maps."""
    return _rational_stream(DEFECT_PATTERN, rng, write, tiny)


def _conic_pair(rng: random.Random, tall: bool) -> List[dict]:
    """Two ternary conics without a common component.  Unit pairs are
    binomials with coefficients +-1 (like the gallery's pair); tall pairs
    have three terms with coefficients in [-3, 3], where exact elimination
    meets much larger fractions."""
    mons = list(monomials(3, 2))
    coeffs = [-3, -2, -1, 1, 2, 3] if tall else [-1, 1]
    while True:
        pair = []
        for _ in range(2):
            support = rng.sample(mons, 3 if tall else 2)
            pair.append(poly(3, [(e, rng.choice(coeffs)) for e in support]))
        if _zero_dimensional(pair, rng):
            return pair


def _zero_dimensional(pair: List[dict], rng: random.Random) -> bool:
    """No common component.  A shared curve meets every line, so the two
    restrictions to any line would share a root; restricted to a random
    line, the conics' resultant is nonzero iff they meet in finitely many
    points off that line."""
    def restrict(pj, p, v):
        # coefficients (c0, c1, c2) of t -> F(p + t v) from three values
        f = [eval_poly(pj, p + t * v) for t in (0.0, 1.0, -1.0)]
        return f[0], (f[1] - f[2]) / 2, (f[1] + f[2]) / 2 - f[0]
    for _ in range(2):
        p, v = (np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                          for _ in range(3)]) for _ in range(2))
        a, b = restrict(pair[0], p, v), restrict(pair[1], p, v)
        syl = np.array([[a[2], a[1], a[0], 0], [0, a[2], a[1], a[0]],
                        [b[2], b[1], b[0], 0], [0, b[2], b[1], b[0]]])
        scale = np.prod(np.linalg.norm(syl, axis=1))
        if abs(np.linalg.det(syl)) < 1e-8 * scale:
            return False
    return True


def _rational_components(rng: random.Random, count: int) -> dict:
    """`count` one-variable rational functions, numerator degrees 0, 1, 2
    in turn over linear denominators, small integer coefficients, linearly
    independent over C (for q = 2 the q-invariant rational functions are
    the constants, so this makes the Casoratian nonzero)."""
    while True:
        comps = [{"num": random_poly(rng, 1, k % 3, 3, 2),
                  "den": random_poly(rng, 1, 1, 3, 2)}
                 for k in range(count)]
        pts = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
               for _ in range(count + 2)]
        vals = np.array([[eval_poly(c["num"], [z]) / eval_poly(c["den"], [z])
                          for c in comps] for z in pts])
        sv = np.linalg.svd(vals, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            return {"components": comps}


# (kind, tall pair, alpha or component count).  Unit pairs at alpha 12
# vary most in cost between inputs (0.09 to 0.9 s), so one per cycle keeps
# that regime while the 4-component Casoratians, which vary least, take
# two shares each: the median and tail then move less with the seed.
EXACT_PATTERN = (("filtration", False, 10), ("casorati", None, 4),
                 ("filtration", True, 6), ("hilbert", False, 0),
                 ("filtration", False, 12), ("nondegeneracy", None, 5),
                 ("filtration", True, 8), ("casorati", None, 5),
                 ("filtration", False, 10), ("hilbert", True, 0),
                 ("filtration", True, 6), ("nondegeneracy", None, 4),
                 ("filtration", True, 8), ("casorati", None, 4),
                 ("nondegeneracy", None, 4))


def exact_algebra(rng: random.Random, write: _Writer,
                  tiny: bool = False) -> Iterator[Op]:
    """filtration inspect on zero-dimensional conic pairs (unit binomials
    at alpha 10/12, height-3 pairs at alpha 6/8) and hilbert on both kinds;
    casorati / nondegeneracy on one-variable rational maps with 4 or 5
    components (cofactor and elimination determinant paths)."""
    for i in itertools.count():
        kind, tall, size = EXACT_PATTERN[i % len(EXACT_PATTERN)]
        if tiny:
            size = {"filtration": 4 if not tall else 2}.get(kind, 3)
        if kind in ("filtration", "hilbert"):
            path = write("gammas", {"forms": _conic_pair(rng, tall)})
            if kind == "hilbert":
                yield Op(kind, ["hilbert", "--gammas", path], {"d": 2})
            else:
                yield Op(kind, ["filtration", "inspect", "--gammas", path,
                                "--alpha", str(size)],
                         {"alpha": size, "n": 2})
            continue
        mp = _rational_components(rng, size)
        mpath, qpath = write("map", mp), write("q", Q1)
        if kind == "casorati":
            yield Op(kind, ["casorati", "--map", mpath, "--q", qpath],
                     {"map": mp, "q": 2, "seed": rng.randrange(10**6)})
        else:
            yield Op(kind, ["nondegeneracy", "--map", mpath, "--q", qpath],
                     {})


GENERATORS: Dict[str, Callable] = {
    "hypersurface_product": hypersurface_product,
    "rational_maps": rational_maps,
    "exact_algebra": exact_algebra,
    "known_defects": known_defects,
}
# ops in one whole cycle of each stream's fixed kind/size pattern
CYCLE = {
    # the two hypersurface classes come twice per pattern, so three patterns
    # make one whole pass of each over the six base pairs (the cheap cartan
    # and hsmt ops, once per pattern, do half a pass)
    "hypersurface_product": 3 * len(HYPERSURFACE_PATTERN),
    "rational_maps": len(RATIONAL_PATTERN),
    "exact_algebra": len(EXACT_PATTERN),
    "known_defects": len(DEFECT_PATTERN)}


def stream(workload: str, seed: int, workdir: str,
           tiny: bool = False) -> Iterator[Op]:
    """The op stream of one workload; identical for identical seeds."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, _Writer(workdir), tiny)


def one_of_each(workload: str, seed: int, workdir: str) -> List[Op]:
    """The first tiny op of every kind in one cycle of the stream."""
    ops: Dict[str, Op] = {}
    for op in itertools.islice(stream(workload, seed, workdir, tiny=True),
                               CYCLE[workload]):
        ops.setdefault(op.kind, op)
    return list(ops.values())
