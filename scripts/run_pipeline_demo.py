"""End-to-end walkthrough on one synthetic scenario.

Builds a constraint store and a rainy-commute prompt, retrieves and
compresses the relevant snippets, scores three candidate policies, selects
the preference pair, prints the pairwise loss at a few temperatures, and
finishes with the offline metric report. Everything is seeded and
stdlib-only; run it directly:

    python3 scripts/run_pipeline_demo.py [--beta 2.0] [--token-budget 40]
"""

from __future__ import annotations

import argparse

from ecpo.config import RunConfig
from ecpo.context import DriverProfile, PerceptionSummary, StrategyPrompt, VehicleProfile
from ecpo.metrics import StrategyEvalRecord, strategy_metrics
from ecpo.preference import Candidate, CandidateSet, pairwise_loss, select_pair
from ecpo.store import (
    Assertions,
    ConstraintSnippet,
    LexicalScorer,
    build_query,
    compress,
    load_store,
    retrieve,
)
from ecpo.validator import validate

RAIN_SUMMARY = "heavy rain with limited visibility and dense traffic ahead"

SNIPPETS = (
    ConstraintSnippet(
        snippet_id="legal-speed",
        layer="legal",
        clause_id="TR-4.2",
        text="Maintain a safe following distance in rain and reduced visibility.",
        jurisdiction="EU",
    ),
    ConstraintSnippet(
        snippet_id="veh-hvac",
        layer="vehicle",
        clause_id="CAP-1.1",
        text="HVAC fan level operates between one and five.",
        assertions=Assertions(),
    ),
    ConstraintSnippet(
        snippet_id="drv-noise",
        layer="driver",
        clause_id="PRF-2.3",
        text="Driver is sensitive to noise and prefers visual alerts in rain.",
        assertions=Assertions(required_modalities=frozenset({"visual"})),
    ),
)

GOOD_POLICY = {
    "objectives": "Address reduced visibility and keep the anxious driver calm.",
    "constraints": {
        "legal_regulations": "Keep within posted speed limits in heavy rain.",
        "vehicle_limits": "Wipers and lights verified available.",
        "driver_preferences": "Visual alerts only; the driver is noise sensitive.",
        "contextual_evidence": RAIN_SUMMARY,
    },
    "actions": [
        {
            "type": "HmiPrompt",
            "parameters": {"modality": "visual", "text": "Visibility reduced by rain. Keep a larger distance."},
            "rationale": "Reduced visibility calls for a longer following distance.",
            "evidence": {"out_of_vehicle_text": [RAIN_SUMMARY], "labels": ["rainy"]},
        }
    ],
}

MEDIOCRE_POLICY = {
    "objectives": "Keep driving.",
    "constraints": {"legal_regulations": "Obey the law."},
    "actions": [
        {
            "type": "HmiPrompt",
            "parameters": {"modality": "audio", "text": "Alert."},
            "evidence": {},
        }
    ],
}

BAD_POLICY = {
    "objectives": "Handle it.",
    "constraints": {},
    "actions": [
        {
            "type": "DrivingSuggestion",
            "parameters": {"text": "brake hard and steer left"},
            "evidence": {},
        }
    ],
}


def build_prompt(constraints: tuple[ConstraintSnippet, ...]) -> StrategyPrompt:
    return StrategyPrompt(
        prompt_id="demo-rain-01",
        z=PerceptionSummary(
            driver_labels=("anxious",),
            scene_labels=("rainy", "dense traffic"),
            summary_initial=RAIN_SUMMARY,
            summary_transition="driver shows signs of anxiety",
            summary_final="the vehicle continues at reduced speed in the rain",
        ),
        driver=DriverProfile(alert_modality_preference="visual", sensitivities={"noise": "high"}),
        vehicle=VehicleProfile(),
        constraints=constraints,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--beta", type=float, default=2.0, help="loss temperature (mandatory downstream)")
    parser.add_argument("--token-budget", type=int, default=40, help="compression budget in tokens")
    args = parser.parse_args()

    config = RunConfig(beta=args.beta, token_budget=args.token_budget)

    print("== retrieval ==")
    store = load_store(SNIPPETS)
    probe = build_prompt(())
    query = build_query(probe.z, probe.driver, probe.vehicle)
    result = retrieve(store, query, config.top_k, scorer=LexicalScorer())
    by_id = {snippet.snippet_id: snippet for snippet in store.snapshot()}
    for entry in result.ranked:
        print(f"  {entry.snippet_id:<12} score={entry.score:.4f}  {by_id[entry.snippet_id].text}")
    kept = compress([by_id[e.snippet_id] for e in result.ranked], config.token_budget)
    print(f"  compressed to {len(kept)} snippet(s) within {config.token_budget} tokens")

    prompt = build_prompt(tuple(by_id[entry.snippet_id] for entry in kept))

    print("\n== validation ==")
    candidates = []
    for candidate_id, document in (("good", GOOD_POLICY), ("mediocre", MEDIOCRE_POLICY), ("bad", BAD_POLICY)):
        report = validate(document, prompt, config)
        candidates.append(Candidate(candidate_id, document, report))
        failed = [c.check_id for c in report.checks if not c.passed]
        print(
            f"  {candidate_id:<9} ecpo={report.ecpo:.4f} core={report.s_core:.2f} "
            f"evd={report.s_evd:.2f} str={report.s_str:.2f} failed={failed or '[]'}"
        )

    print("\n== preference pair ==")
    pair = select_pair(CandidateSet(prompt.prompt_id, tuple(candidates)), config)
    if pair is None:
        print("  no pair: score gap too small")
        return 0
    print(f"  plus={pair.plus_id} minus={pair.minus_id} gap={pair.gap:.4f} weight={pair.weight:.4f}")
    for beta in (0.5, config.beta, 8.0):
        reports = {c.candidate_id: c.report for c in candidates}
        loss = pairwise_loss(reports[pair.plus_id].ecpo, reports[pair.minus_id].ecpo, beta=beta, w=pair.weight)
        print(f"  pairwise loss at beta={beta:<4} -> {loss:.6f}")

    print("\n== offline metrics ==")
    records = [
        StrategyEvalRecord.from_report(f"{prompt.prompt_id}/{c.candidate_id}", c.report)
        for c in candidates
    ]
    print(strategy_metrics(records).render_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
