"""Seeded input generation for the benchmark workloads.

Nothing here imports ``pcf_unify``: the program only ever sees the inputs
these functions return.  The same seed gives the same inputs, and each
generator takes its size (an item count, or the cluster quota) so that a
run's amount of work is fixed before the timed phase starts.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "pcf_unify" / "data"

# The seed used while tuning the workloads (the spread checks used 11-15 and
# 21-40), and one kept back so that a performance claim can be re-checked on
# inputs nobody tuned against.
DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 9001

# The three published trajectories of the bundled pi field, with their PCFs.
PUBLISHED_TRAJECTORIES = [
    {"id": "traj.euler", "point": ("1/2", "-1/2", "3/2"), "direction": (0, 0, 1),
     "pcf": ("1", "n(n+1)"), "coeffs": [["1"], ["0", "1", "1"]]},
    {"id": "traj.100", "point": ("1/2", "1/2", "1/2"), "direction": (1, 0, 0),
     "pcf": ("3n+1", "n(1-2n)"), "coeffs": [["1", "3"], ["0", "1", "-2"]]},
    {"id": "traj.111", "point": ("1/2", "1/2", "1/2"), "direction": (1, 1, 1),
     "pcf": ("2", "(2n-1)^2"), "coeffs": [["2"], ["1", "-4", "4"]]},
]

# Out of every SEARCH_BLOCK candidates, one is planted and one is balanced.
SEARCH_BLOCK = 8
FIELD_PLANT_EVERY = 25


def load_corpus(name: str) -> list[dict]:
    with open(DATA / f"{name}.json") as f:
        return json.load(f)["formulas"]


def poly_text(coeffs: list[int]) -> str:
    """Grammar text of sum coeffs[i] n^i (coeffs low to high, not all zero)."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("n" if i == 1 else f"n^{i}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def poly_value(coeffs, n):
    return sum(c * n**i for i, c in enumerate(coeffs))


# -- search -------------------------------------------------------------------


# Balanced candidates (lead(a)^2 + 4 lead(b) = 0) converge polynomially and
# take the Richardson / convergent_pairs path.  Drawn at random they cost
# 1.5 to 50 s each at the seed commit, a third of them over 30 s, which no
# run of this length absorbs steadily; this panel of four deg-1 balanced
# fractions costs 3.5 to 4.5 s each and goes through that path every time.
BALANCED_PANEL = (
    "PCF(2*n + 1; -n^2)",
    "PCF(2*n + 4; -n^2 - n - 1)",
    "PCF(2*n - 1; -n^2 + 4*n - 2)",
    "PCF(2*n + 3; -n^2 - 2*n + 2)",
)


def _convergent_candidate(rng: random.Random, d: int) -> dict:
    """PCF with deg a = d, deg b = 2d, small integer coefficients, and
    lead(a)^2 + 4 lead(b) > 0 (geometric convergence).  b(n) has no root at
    n = 1..40, so no candidate is truncated to a rational."""
    while True:
        la = rng.randint(1, 4)
        lb = rng.choice([v for v in range(-4, 5) if v and la * la + 4 * v > 0])
        a = [rng.randint(-4, 4) for _ in range(d)] + [la]
        b = [rng.randint(-4, 4) for _ in range(2 * d)] + [lb]
        if any(poly_value(b, n) == 0 for n in range(1, 41)):
            continue
        return {"text": f"PCF({poly_text(a)}; {poly_text(b)})", "kind": "convergent",
                "planted": None}


def search_planted_pool() -> list[dict]:
    pool = [
        {"text": f"PCF({r['payload']['a']}; {r['payload']['b']})", "kind": "planted",
         "planted": r["id"]}
        for r in load_corpus("corpus_pi")
        if r["kind"] == "pcf"
    ]
    pool += [
        {"text": f"PCF({t['pcf'][0]}; {t['pcf'][1]})", "kind": "planted",
         "planted": t["id"]}
        for t in PUBLISHED_TRAJECTORIES
    ]
    return pool


def search_inputs(seed: int, count: int) -> list[dict]:
    """``count`` candidate PCFs in text form.

    Position i is planted when i % SEARCH_BLOCK == 0 and balanced (from
    BALANCED_PANEL) when i % SEARCH_BLOCK == SEARCH_BLOCK // 2; the rest are
    drawn in the convergent non-balanced regime with deg a cycling through
    1, 2, 3 (cost grows with the degree).  Fixed positions keep the mix
    identical from seed to seed.
    """
    rng = random.Random(f"search:{seed}")
    pool = search_planted_pool()
    rng.shuffle(pool)
    panel_offset = rng.randrange(len(BALANCED_PANEL))
    out = []
    convergent = 0
    for i in range(count):
        slot = i % SEARCH_BLOCK
        if slot == 0:
            out.append(dict(pool[(i // SEARCH_BLOCK) % len(pool)]))
        elif slot == SEARCH_BLOCK // 2:
            panel = BALANCED_PANEL[(panel_offset + i // SEARCH_BLOCK) % len(BALANCED_PANEL)]
            out.append({"text": panel, "kind": "balanced", "planted": None})
        else:
            out.append(_convergent_candidate(rng, 1 + convergent % 3))
            convergent += 1
        out[-1]["id"] = f"s{i}"
    return out


# -- cluster ------------------------------------------------------------------


def cluster_inputs(seed: int, strata: dict[str, list[str]], quota: dict[str, int]) -> dict:
    """A seeded record sample, as a corpus document the pipeline ingests.

    ``quota[name]`` records are drawn from ``strata[name]``, so every seed
    gets the same mix of record classes.
    """
    rng = random.Random(f"cluster:{seed}")
    records = {r["id"]: r for r in load_corpus("corpus_pi") + load_corpus("corpus_table1")}
    chosen = []
    for name in sorted(quota):
        chosen += rng.sample(strata[name], quota[name])
    return {
        "schema_version": 1,
        "formulas": [records[rid] for rid in sorted(chosen)],
    }


# -- field --------------------------------------------------------------------

# Fractional parts are distinct and never 0, so x - z and y - z are never
# integers and every lattice path stays off the field's singular planes.
_FRACTIONS = ("1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "3/5", "4/5")


def _by_size(radius: int, bins: int) -> list[list[tuple]]:
    """Nonzero integer vectors with |coords| <= radius, ordered by L1 norm
    and cut into ``bins`` slices of (nearly) equal size."""
    vecs = sorted(
        (v for v in itertools.product(range(-radius, radius + 1), repeat=3) if any(v)),
        key=lambda v: (sum(map(abs, v)), v),
    )
    step = len(vecs) / bins
    return [vecs[round(k * step):round((k + 1) * step)] for k in range(bins)]


# Cost grows with the size of v (polynomial degree) and of w, so instance j
# draws v from size slice j % len and w from slice j % len: every seed gets
# the same mix of sizes.
_DIRECTIONS = _by_size(3, 6)
_OFFSETS = _by_size(1, 3)


def field_inputs(seed: int, count: int) -> list[dict]:
    """``count`` (point, direction, offset) instances on the pi field.

    Every FIELD_PLANT_EVERY-th instance is a published trajectory, with
    offset (1, 0, 0); the others draw |v_i| <= 3 and |w_i| <= 1.
    """
    rng = random.Random(f"field:{seed}")
    out = []
    drawn = 0
    for i in range(count):
        if i % FIELD_PLANT_EVERY == 0:
            t = PUBLISHED_TRAJECTORIES[(i // FIELD_PLANT_EVERY) % len(PUBLISHED_TRAJECTORIES)]
            inst = {"point": list(t["point"]), "direction": list(t["direction"]),
                    "offset": [1, 0, 0], "planted": t["id"]}
        else:
            v = rng.choice(_DIRECTIONS[drawn % len(_DIRECTIONS)])
            w = rng.choice(_OFFSETS[drawn % len(_OFFSETS)])
            drawn += 1
            fr = rng.sample(_FRACTIONS, 3)
            point = [str(rng.randint(-1, 2) + Fraction(f)) for f in fr]
            inst = {"point": point, "direction": list(v), "offset": list(w), "planted": None}
        inst["id"] = f"f{i}"
        out.append(inst)
    return out
