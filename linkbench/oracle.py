"""Sequential Phase-II oracle for one tenant's query pool (a build step).

Usage: ``PYTHONPATH=src python3 linkbench/oracle.py BUILD/TENANT``

Links every query of ``BUILD/TENANT/data/queries.jsonl`` on the plain
pipeline in ``BUILD/TENANT/model`` with the per-candidate sequential
decode (``batch_phase2=False``, no compiled artifact) and writes
``BUILD/TENANT/oracle.json``: each query's ranked ``(cid, log_prob)``
list and ground-truth cid, plus accuracy@1 and MRR over the pool.
Served answers are later checked against these rankings.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def main(base: Path) -> None:
    from repro import api

    from build import K

    linker = api.load_linker(
        base / "model", api.LinkerConfig(k=K, batch_phase2=False)
    )
    with open(base / "data" / "queries.jsonl", encoding="utf-8") as handle:
        pool = [json.loads(line) for line in handle]
    entries = []
    for query in pool:
        result = api.link(linker, query["text"], k=K)
        entries.append(
            {
                "text": query["text"],
                "cid": query["cid"],
                "degraded": result.degraded,
                "ranked": [
                    [
                        concept.cid,
                        concept.log_prob
                        if math.isfinite(concept.log_prob)
                        else None,
                    ]
                    for concept in result.ranked
                ],
            }
        )
    rankings = [[cid for cid, _ in entry["ranked"]] for entry in entries]
    gold = [entry["cid"] for entry in entries]
    report = {
        "k": K,
        "accuracy_at1": api.top1_accuracy(rankings, gold),
        "mrr": api.mean_reciprocal_rank(rankings, gold),
        "queries": entries,
    }
    (base / "oracle.json").write_text(json.dumps(report))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
