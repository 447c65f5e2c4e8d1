"""Analysis reports: every measure of one model in one structure.

A report keeps the model, its cyclic system, its cf and the verdicts.  The
JSON document of `AnalysisReport.to_dict` is the single source of what is
reported; `render_text` renders the text output from it (numbers at 6
decimal places).  Measures that do not apply (no binary cyclic structure, LP size
cap exceeded) are omitted and explained in `notices` instead of failing the
whole analysis.

The contextual fraction of a non-signalling binary cycle is taken in closed
form from its `cbd.CyclicSystem`, with certificate gap 0 (see `cbd`).  Every
other model, signalling cycles included, gets the `sheaf` linear program;
`sheaf` and `linprog` (and with them numpy) are imported only on that path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from . import cbd
from .empirical import PROB_TOL, EmpiricalModel, is_outcome_symmetric, signalling
from .files import distributions_to_list
from .scenario import Context, Frozen

if TYPE_CHECKING:
    from .ingest import ContextTally


def fmt(x: float) -> str:
    return f"{x:.6f}"


class CfReport(NamedTuple):
    cf: float
    ncf_weight: float
    gap: float


class AnalysisReport(Frozen):
    """The model and its measures; the verdicts are read off the measures,
    and `to_dict` is the one place that lays them out as a document.

    A `Frozen` value, but unhashable: `tallies` and `notices` are a dict
    and a list."""

    __hash__ = None

    def __init__(self, model: EmpiricalModel, signalling: float, tol: float,
                 outcome_symmetric: Optional[bool], cyclic: Optional[cbd.CyclicSystem],
                 cf: Optional[CfReport], tallies: Optional[dict[Context, ContextTally]] = None,
                 notices: Optional[list[str]] = None):
        super().__init__(model=model, signalling=signalling, tol=tol,
                         outcome_symmetric=outcome_symmetric, cyclic=cyclic, cf=cf,
                         tallies=tallies, notices=[] if notices is None else notices)

    @property
    def non_signalling(self) -> bool:
        return self.signalling <= self.tol

    # a model on a facet has cnt1 0 or a rounding step off it, and a
    # noncontextual one cf 0 or a rounding step above it: both decided at tol
    @property
    def verdict_cbd(self) -> Optional[bool]:
        return None if self.cyclic is None else self.cyclic.cnt1 > self.tol

    @property
    def verdict_sheaf(self) -> Optional[bool]:
        """None without a cf, or when the model signals."""
        if self.cf is None or not self.non_signalling:
            return None
        return self.cf.cf > self.tol

    def to_dict(self) -> dict:
        scenario = self.model.scenario
        doc = {
            "scenario": {
                "observables": len(scenario.observables),
                "contexts": len(self.model.distributions),
                "outcomes": list(scenario.outcomes),
            },
            "distributions": distributions_to_list(self.model),
            "signalling": self.signalling,
            "non_signalling": self.non_signalling,
            "tol": self.tol,
            "outcome_symmetric": self.outcome_symmetric,
            "verdicts": {"cbd": self.verdict_cbd, "sheaf": self.verdict_sheaf},
            "notices": list(self.notices),
        }
        system = self.cyclic
        if system is not None:
            doc["cyclic"] = {
                "rank": system.rank,
                "ordering": list(system.contents),
                "contexts": [list(c) for c in system.contexts],
                "correlations": list(system.correlations),
                "delta": system.delta,
                "cnt1": system.cnt1,
            }
            if system.rank == 4:
                doc["cyclic"]["violation"] = system.violation
                doc["cyclic"]["signs"] = list(cbd.chsh_pattern(system.correlations))
        if self.cf is not None:
            cf = self.cf
            doc["contextual_fraction"] = {"cf": cf.cf, "ncf_weight": cf.ncf_weight,
                                          "certificate_gap": cf.gap,
                                          "reliable": self.non_signalling}
        if self.tallies is not None:
            doc["tallies"] = [
                {"context": list(ctx), "n_total": t.n_total, "n_valid": t.n_valid,
                 "n_same": t.n_same, "n_diff": t.n_diff}
                for ctx, t in self.tallies.items()
            ]
        return doc


def render_text(doc: dict) -> str:
    """The text view of an `AnalysisReport.to_dict` document."""
    scenario = doc["scenario"]
    lines = [
        f"scenario: {scenario['observables']} observables, "
        f"{scenario['contexts']} contexts, outcomes {'/'.join(scenario['outcomes'])}",
        "distributions:",
    ]
    for entry in doc["distributions"]:
        cells = "  ".join(f"{k}={fmt(v)}" for k, v in entry["probs"].items())
        lines.append(f"  ({', '.join(entry['context'])}):  {cells}")
    if "tallies" in doc:
        lines.append("tallies (total/valid/same/diff):")
        for entry in doc["tallies"]:
            lines.append(
                f"  ({', '.join(entry['context'])}):  "
                f"{entry['n_total']}/{entry['n_valid']}/{entry['n_same']}/{entry['n_diff']}"
            )
    verdict = "non-signalling" if doc["non_signalling"] else "SIGNALLING"
    lines.append(
        f"signalling discrepancy: {fmt(doc['signalling'])} ({verdict} at tol {doc['tol']:g})"
    )
    if doc["outcome_symmetric"] is not None:
        lines.append(f"outcome symmetric: {'yes' if doc['outcome_symmetric'] else 'no'}")
    if "cyclic" in doc:
        c = doc["cyclic"]
        lines.append(f"cyclic structure: rank {c['rank']}, cycle {' -> '.join(c['ordering'])}")
        lines.append("correlations:")
        for ctx, corr in zip(c["contexts"], c["correlations"]):
            lines.append(f"  <{' '.join(ctx)}> = {fmt(corr)}")
        lines.append(f"delta: {fmt(c['delta'])}")
        lines.append(f"cnt1: {fmt(c['cnt1'])}")
        if "violation" in c:
            signs = " ".join("+" if s > 0 else "-" for s in c["signs"])
            lines.append(f"bell-chsh violation: {fmt(c['violation'])} (signs {signs})")
    if "contextual_fraction" in doc:
        cf = doc["contextual_fraction"]
        flag = "" if cf["reliable"] else "  [unreliable: signalling input]"
        lines.append(
            f"contextual fraction: {fmt(cf['cf'])} "
            f"(explained mass {fmt(cf['ncf_weight'])}, "
            f"certificate gap {cf['certificate_gap']:.2e}){flag}"
        )
    verdicts = [
        f"{name} contextual: {'yes' if doc['verdicts'][key] else 'no'}"
        for key, name in (("cbd", "CbD"), ("sheaf", "sheaf"))
        if doc["verdicts"][key] is not None
    ]
    if verdicts:
        lines.append("verdicts: " + "; ".join(verdicts))
    for notice in doc["notices"]:
        lines.append(f"notice: {notice}")
    return "\n".join(lines)


def build_report(
    model: EmpiricalModel,
    tol: float = PROB_TOL,
    tallies: Optional[dict[Context, ContextTally]] = None,
) -> AnalysisReport:
    notices: list[str] = []
    sig = signalling(model)
    non_signalling = sig <= tol

    symmetric: Optional[bool] = None
    if len(model.scenario.outcomes) == 2:
        symmetric = is_outcome_symmetric(model, tol)

    try:
        system = cbd.CyclicSystem.from_model(model)
    except cbd.CyclicSystemError as exc:
        system = None
        notices.append(f"{exc}; CbD measures omitted")
    if system is not None and system.rank != 4:
        notices.append(
            f"rank {system.rank} cycle: the Bell-CHSH violation needs rank 4, omitted")

    cf_report: Optional[CfReport] = None
    if system is not None and non_signalling:
        cf = system.contextual_fraction
        cf_report = CfReport(cf=cf, ncf_weight=1.0 - cf, gap=0.0)
    else:
        from . import sheaf
        from .linprog import LpSizeError

        try:
            result = sheaf.contextual_fraction(model)
        except LpSizeError as exc:
            notices.append(f"contextual fraction omitted: {exc}")
        else:
            cf_report = CfReport(cf=result.cf, ncf_weight=result.ncf_weight, gap=result.gap)
    if cf_report is not None and not non_signalling:
        notices.append("model signals beyond tol; contextual-fraction verdict withheld")

    return AnalysisReport(
        model=model,
        signalling=sig,
        tol=tol,
        outcome_symmetric=symmetric,
        cyclic=system,
        cf=cf_report,
        tallies=tallies,
        notices=notices,
    )
