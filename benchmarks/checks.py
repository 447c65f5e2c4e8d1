"""Output checks.  Each returns a list of problems; an empty list passes.

The expected values are recomputed here from the generator's own tallies
and tables, never read back from the program:

- analyze: violation = s_odd(correlations) - 2 by the closed form, and
  cf = max(0, violation / 2), the rank-4 saturation of acceptance
  criterion 3;
- bootstrap: one and two workers give byte-identical JSON for one seed
  (acceptance criterion 8);
- cycles: cf in [0, 1] with certificate gap <= 1e-7, cf at least the
  normalised violation max(0, (s_odd - (n - 2)) / 2) (Abramsky, Barbosa,
  Mansfield, PRL 119, 050504), cf <= lambda for a lambda-mixture with a
  noncontextual model, cf ~ 0 for a noncontextual model, and a notice
  wherever cf is left out.
"""

from __future__ import annotations

import json
import math

VIOLATION_TOL = 1e-12
SATURATION_TOL = 1e-6
GAP_TOL = 1e-7
CF_TOL = 1e-9
CF_NOTICE = "contextual fraction omitted"


def s_odd(values) -> float:
    """Largest sum of sign_j * v_j over sign vectors with an odd number of
    minus signs: flip every negative entry, and if that flips an even
    number, flip the smallest magnitude back."""
    v = [float(x) for x in values]
    mags = [abs(x) for x in v]
    if sum(1 for x in v if x < 0) % 2 == 1:
        return math.fsum(mags)
    return math.fsum(mags + [-2.0 * min(mags)])


def _load(stdout: str, problems: list[str]):
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(doc, dict):
        problems.append("output is not a JSON object")
        return None
    return doc


def check_analyze(returncode: int, stdout: str, correlations) -> list[str]:
    problems: list[str] = []
    if returncode != 0:
        return [f"exit code {returncode}"]
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    try:
        violation = float(doc["cyclic"]["violation"])
        cf = float(doc["contextual_fraction"]["cf"])
    except (KeyError, TypeError, ValueError):
        return ["report lacks cyclic.violation or contextual_fraction.cf"]
    expected = s_odd(correlations) - 2.0
    if not abs(violation - expected) <= VIOLATION_TOL:
        problems.append(f"violation {violation!r} != closed form {expected!r}")
    if not abs(cf - max(0.0, violation / 2.0)) <= SATURATION_TOL:
        problems.append(f"cf {cf!r} != max(0, violation/2) = {max(0.0, violation / 2.0)!r}")
    return problems


def check_bootstrap(returncode: int, stdout: str, statistic: str, samples: int) -> list[str]:
    problems: list[str] = []
    if returncode != 0:
        return [f"exit code {returncode}"]
    doc = _load(stdout, problems)
    if doc is None:
        return problems
    if doc.get("statistic") != statistic or doc.get("n_resamples") != samples:
        problems.append(f"ran {doc.get('statistic')!r} x {doc.get('n_resamples')!r}, "
                        f"asked {statistic!r} x {samples}")
    mean = doc.get("mean")
    frac = doc.get("fraction_positive")
    if not isinstance(mean, float) or not math.isfinite(mean):
        problems.append(f"mean {mean!r} is not a finite number")
    elif statistic == "cf" and not -CF_TOL <= mean <= 1.0 + CF_TOL:
        problems.append(f"cf mean {mean!r} outside [0, 1]")
    if not isinstance(frac, float) or not 0.0 <= frac <= 1.0:
        problems.append(f"fraction_positive {frac!r} outside [0, 1]")
    return problems


def check_workers_agree(stdout_w1: str, stdout_w2: str) -> list[str]:
    if stdout_w1 != stdout_w2:
        return ["--workers 1 and --workers 2 outputs differ"]
    return []


def check_cycle(result: dict, rank: int, kind: str, weight: float, correlations) -> list[str]:
    """`result` holds cf, gap and notices of one build_report call, or the
    error it raised."""
    if "error" in result:
        return [f"report raised: {result['error']}"]
    cf = result.get("cf")
    if cf is None:
        if not any(str(n).startswith(CF_NOTICE) for n in result.get("notices", ())):
            return ["cf left out without a notice"]
        return []
    problems = []
    gap = result.get("gap")
    if not -CF_TOL <= cf <= 1.0 + CF_TOL:
        problems.append(f"cf {cf!r} outside [0, 1]")
    if gap is None or not gap <= GAP_TOL:
        problems.append(f"certificate gap {gap!r} above {GAP_TOL}")
    bound = max(0.0, (s_odd(correlations) - (rank - 2)) / 2.0)
    if cf < bound - CF_TOL:
        problems.append(f"cf {cf!r} below the normalised violation {bound!r}")
    if kind == "mix" and cf > weight + CF_TOL:
        problems.append(f"cf {cf!r} above the mixture weight {weight!r}")
    if kind == "nc" and cf > CF_TOL:
        problems.append(f"noncontextual model has cf {cf!r}")
    return problems
