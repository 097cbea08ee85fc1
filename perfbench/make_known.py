"""Regenerate perfbench/known.json, the known answers of the planted search
candidates:  python3 perfbench/make_known.py

Each planted PCF is canonicalized and identified by the package, and the
answer is kept only if it is confirmed without the package's limit code:
either the fraction, evaluated directly in mpmath, agrees with the Moebius
image of pi to at least 200 digits, or (for slowly converging fractions) the
canonical form equals the record as written and the limit equals the
record's declared closed form, evaluated with mpmath's own pi, minus a(0).
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mpmath as mp  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
from pcf_unify import MatchContext, parse_pcf, to_pcf_canonical  # noqa: E402

DIGITS = 200
# Closed forms of the written fractions of the slowly converging published
# trajectories: Euler's is corpus record t2.44, PCF(1; n^2 + n); the other is
# Brouncker's 4/pi = 1 + 1/(2 + 9/(2 + 25/(2 + ...))).
TRAJECTORY_VALUES = {"traj.euler": "2/(-2 + pi)", "traj.111": "1 + 4/pi"}


def eval_declared(text: str) -> mp.mpf:
    if not re.match(r"^[0-9pi+\-*/() ]+$", text):
        raise ValueError(f"unexpected declared value {text!r}")
    expr = re.sub(r"(\d)\s*(pi|\()", r"\1*\2", text)
    expr = re.sub(r"(\d+)", r"mpf(\1)", expr)
    return eval(expr, {"__builtins__": {}}, {"mpf": mp.mpf, "pi": +mp.pi})


def main():
    declared = {r["id"]: r.get("declared_value") for r in gen.load_corpus("corpus_pi")}
    declared.update(TRAJECTORY_VALUES)
    known = {}
    for cand in gen.search_planted_pool():
        pid = cand["planted"]
        written = parse_pcf(cand["text"])
        canon, _ = to_pcf_canonical(written)
        ident = MatchContext().identification(canon)
        if ident is None:
            sys.exit(f"{pid}: not identified")
        matrix = [[int(ident.matrix[i, j]) for j in range(2)] for i in range(2)]
        a = list(canon.a.coeffs)
        b = list(canon.b.coeffs)
        with mp.workdps(DIGITS + 40):
            image = check.mobius(matrix, check.load_constant("pi", DIGITS + 30))
            value, agree = check.cf_limit(a, b, DIGITS + 10)
            if agree >= DIGITS:
                how = "direct evaluation"
            elif canon == written and declared.get(pid):
                value = eval_declared(declared[pid]) - written.a(0)
                how = f"declared value {declared[pid]}"
            else:
                sys.exit(f"{pid}: no independent confirmation")
            if abs(value - image) > mp.mpf(10) ** (-DIGITS):
                sys.exit(f"{pid}: identification disagrees with {how}")
        known[pid] = {
            "canonical": [[str(c) for c in a], [str(c) for c in b]],
            "matrix": matrix,
            "confirmed_by": how,
        }
        print(pid, str(canon), matrix, how, flush=True)
    (HERE / "known.json").write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
