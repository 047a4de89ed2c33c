#!/usr/bin/env python3
"""Regenerate perfbench/reference/study_ar1.json, the summaries that the
study-ar1 workload checks its output against.

    python3 perfbench/make_reference.py

Run it only when the study's expected numbers change on purpose.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import OUT, environment  # noqa: E402  (also pins the thread pools)
from workloads import STUDY_REFERENCE, StudyAR1, reference_rows  # noqa: E402

FIELDS = ["estimator_id", "n", "b", "k", "rows", "degenerate",
          "mean", "q05", "q25", "q50", "q75", "q95"]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    summaries = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        study = StudyAR1(Path(tmp))
        for master_seed in study.master_seeds:
            code, _, summary_text, _ = study.experiment(master_seed)
            if code != 0:
                print(f"experiment failed for master seed {master_seed}", file=sys.stderr)
                return 1
            summaries[str(master_seed)] = reference_rows(json.loads(summary_text), FIELDS)
    env = environment()
    lines = ["{",
             f'"made_with": {json.dumps({k: env[k] for k in ("python", "numpy", "scipy")})},',
             f'"config": {json.dumps(StudyAR1.config)},',
             f'"fields": {json.dumps(FIELDS)},',
             '"summaries": {']
    items = list(summaries.items())
    for i, (seed, rows) in enumerate(items):
        sep = "," if i < len(items) - 1 else ""
        lines.append(f'"{seed}": {json.dumps(rows)}{sep}')
    lines.append("}}")
    STUDY_REFERENCE.parent.mkdir(exist_ok=True)
    STUDY_REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {STUDY_REFERENCE} ({len(summaries)} master seeds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
