"""Analysis reports: every measure of one model in one structure.

The same report renders as text (numbers at 6 decimal places) or as a dict
for JSON output; both carry identical values.  Measures that do not apply
(no binary cyclic structure, LP size cap exceeded) are omitted and explained
in `notices` instead of failing the whole analysis.

The contextual fraction of a non-signalling binary cycle is taken in closed
form from its `cbd.CyclicSystem`, with certificate gap 0 (see `cbd`).  Every
other model, signalling cycles included, gets the `sheaf` linear program;
`sheaf` and `linprog` (and with them numpy) are imported only on that path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import cbd
from .empirical import EmpiricalModel, is_outcome_symmetric, signalling
from .ingest import ContextTally
from .scenario import Context


def fmt(x: float) -> str:
    return f"{x:.6f}"


@dataclass
class CyclicReport:
    rank: int
    ordering: tuple[str, ...]
    contexts: tuple[Context, ...]
    correlations: tuple[float, ...]
    delta: float
    cnt1: float
    violation: Optional[float]  # rank 4 only
    signs: Optional[tuple[int, ...]]


@dataclass
class CfReport:
    cf: float
    ncf_weight: float
    gap: float
    reliable: bool


@dataclass
class AnalysisReport:
    n_observables: int
    n_contexts: int
    outcomes: tuple[str, ...]
    distributions: list[dict]
    signalling: float
    non_signalling: bool
    tol: float
    outcome_symmetric: Optional[bool]
    cyclic: Optional[CyclicReport]
    cf: Optional[CfReport]
    verdict_cbd: Optional[bool]
    verdict_sheaf: Optional[bool]
    tallies: Optional[list[dict]] = None
    notices: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = {
            "scenario": {
                "observables": self.n_observables,
                "contexts": self.n_contexts,
                "outcomes": list(self.outcomes),
            },
            "distributions": self.distributions,
            "signalling": self.signalling,
            "non_signalling": self.non_signalling,
            "tol": self.tol,
            "outcome_symmetric": self.outcome_symmetric,
            "verdicts": {"cbd": self.verdict_cbd, "sheaf": self.verdict_sheaf},
            "notices": list(self.notices),
        }
        if self.cyclic is not None:
            doc["cyclic"] = {
                "rank": self.cyclic.rank,
                "ordering": list(self.cyclic.ordering),
                "contexts": [list(c) for c in self.cyclic.contexts],
                "correlations": list(self.cyclic.correlations),
                "delta": self.cyclic.delta,
                "cnt1": self.cyclic.cnt1,
            }
            if self.cyclic.violation is not None:
                doc["cyclic"]["violation"] = self.cyclic.violation
                doc["cyclic"]["signs"] = list(self.cyclic.signs or ())
        if self.cf is not None:
            doc["contextual_fraction"] = {
                "cf": self.cf.cf,
                "ncf_weight": self.cf.ncf_weight,
                "certificate_gap": self.cf.gap,
                "reliable": self.cf.reliable,
            }
        if self.tallies is not None:
            doc["tallies"] = self.tallies
        return doc

    def render_text(self) -> str:
        lines = [
            f"scenario: {self.n_observables} observables, {self.n_contexts} contexts, "
            f"outcomes {'/'.join(self.outcomes)}",
            "distributions:",
        ]
        for entry in self.distributions:
            cells = "  ".join(f"{k}={fmt(v)}" for k, v in entry["probs"].items())
            lines.append(f"  ({', '.join(entry['context'])}):  {cells}")
        if self.tallies is not None:
            lines.append("tallies (total/valid/same/diff):")
            for entry in self.tallies:
                lines.append(
                    f"  ({', '.join(entry['context'])}):  "
                    f"{entry['n_total']}/{entry['n_valid']}/{entry['n_same']}/{entry['n_diff']}"
                )
        verdict = "non-signalling" if self.non_signalling else "SIGNALLING"
        lines.append(
            f"signalling discrepancy: {fmt(self.signalling)} ({verdict} at tol {self.tol:g})"
        )
        if self.outcome_symmetric is not None:
            lines.append(f"outcome symmetric: {'yes' if self.outcome_symmetric else 'no'}")
        if self.cyclic is not None:
            c = self.cyclic
            lines.append(f"cyclic structure: rank {c.rank}, cycle {' -> '.join(c.ordering)}")
            lines.append("correlations:")
            for ctx, corr in zip(c.contexts, c.correlations):
                lines.append(f"  <{' '.join(ctx)}> = {fmt(corr)}")
            lines.append(f"delta: {fmt(c.delta)}")
            lines.append(f"cnt1: {fmt(c.cnt1)}")
            if c.violation is not None:
                signs = " ".join("+" if s > 0 else "-" for s in (c.signs or ()))
                lines.append(f"bell-chsh violation: {fmt(c.violation)} (signs {signs})")
        if self.cf is not None:
            flag = "" if self.cf.reliable else "  [unreliable: signalling input]"
            lines.append(
                f"contextual fraction: {fmt(self.cf.cf)} "
                f"(explained mass {fmt(self.cf.ncf_weight)}, "
                f"certificate gap {self.cf.gap:.2e}){flag}"
            )
        verdicts = []
        if self.verdict_cbd is not None:
            verdicts.append(f"CbD contextual: {'yes' if self.verdict_cbd else 'no'}")
        if self.verdict_sheaf is not None:
            verdicts.append(f"sheaf contextual: {'yes' if self.verdict_sheaf else 'no'}")
        if verdicts:
            lines.append("verdicts: " + "; ".join(verdicts))
        for notice in self.notices:
            lines.append(f"notice: {notice}")
        return "\n".join(lines) + "\n"


def build_report(
    model: EmpiricalModel,
    tol: float = 1e-9,
    tallies: Optional[dict[Context, ContextTally]] = None,
) -> AnalysisReport:
    scenario = model.scenario
    notices: list[str] = []

    distributions = [
        {
            "context": list(dist.context),
            "probs": {"|".join(joint): p for joint, p in dist.table.items()},
        }
        for dist in model.distributions
    ]

    sig = signalling(model).max_discrepancy
    non_signalling = sig <= tol

    symmetric: Optional[bool] = None
    if len(scenario.outcomes) == 2:
        symmetric = is_outcome_symmetric(model, tol)

    cyclic_report: Optional[CyclicReport] = None
    verdict_cbd: Optional[bool] = None
    try:
        system = cbd.CyclicSystem.from_model(model)
    except cbd.CyclicSystemError as exc:
        system = None
        notices.append(f"{exc}; CbD measures omitted")
    if system is not None:
        cnt1 = system.cnt1
        violation = None
        signs = None
        if system.rank == 4:
            violation = system.violation
            signs = cbd.chsh_pattern(system.correlations)
        else:
            notices.append(
                f"rank {system.rank} cycle: the Bell-CHSH violation needs rank 4, omitted"
            )
        cyclic_report = CyclicReport(
            rank=system.rank,
            ordering=system.contents,
            contexts=system.contexts,
            correlations=system.correlations,
            delta=system.delta,
            cnt1=cnt1,
            violation=violation,
            signs=signs,
        )
        # a model on a facet has cnt1 0 or a rounding step off it; decided
        # at tol, as the sheaf verdict is
        verdict_cbd = cnt1 > tol

    cf_report: Optional[CfReport] = None
    verdict_sheaf: Optional[bool] = None
    if system is not None and non_signalling:
        cf = system.contextual_fraction
        cf_report = CfReport(cf=cf, ncf_weight=1.0 - cf, gap=0.0, reliable=True)
    else:
        from . import sheaf
        from .linprog import LpSizeError

        try:
            result = sheaf.contextual_fraction(model)
        except LpSizeError as exc:
            notices.append(f"contextual fraction omitted: {exc}")
        else:
            cf_report = CfReport(
                cf=result.cf,
                ncf_weight=result.ncf_weight,
                gap=result.gap,
                reliable=non_signalling,
            )
    if cf_report is not None:
        if non_signalling:
            # cf lands on 0 or a rounding step above it when noncontextual;
            # decided at tol, as sheaf.is_noncontextual does
            verdict_sheaf = cf_report.cf > tol
        else:
            notices.append(
                "model signals beyond tol; contextual-fraction verdict withheld"
            )

    tally_rows = None
    if tallies is not None:
        tally_rows = [
            {
                "context": list(ctx),
                "n_total": t.n_total,
                "n_valid": t.n_valid,
                "n_same": t.n_same,
                "n_diff": t.n_diff,
            }
            for ctx, t in tallies.items()
        ]

    return AnalysisReport(
        n_observables=len(scenario.observables),
        n_contexts=len(model.distributions),
        outcomes=scenario.outcomes,
        distributions=distributions,
        signalling=sig,
        non_signalling=non_signalling,
        tol=tol,
        outcome_symmetric=symmetric,
        cyclic=cyclic_report,
        cf=cf_report,
        verdict_cbd=verdict_cbd,
        verdict_sheaf=verdict_sheaf,
        tallies=tally_rows,
        notices=notices,
    )
