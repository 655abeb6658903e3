"""Golden outputs that pin the strategies and the CLI byte for byte.

The files under ``tests/golden/`` hold:

- ``verify_all.json``: stdout of ``copthrottle verify --suite all --format json``;
- ``demos/<demo>.txt``: stdout of each script in ``demos/``;
- ``certificates.json``: for each (graph, certificate) pair the seed-42
  ``certificates`` suite checks (as in ``test_evaluator``), the
  certificate and its exact worst case and trace;
- ``shadow_guard.json``: ``shadow_guard_simulate``'s (rounds, trace), or
  its ``StrategyError``, on ``test_evaluator``'s random shadow-guard cases.

``tests/test_golden.py`` and ``tests/test_demos.py`` compare against them.
A change meant to alter one of these outputs regenerates every file with

    PYTHONPATH=src python tests/make_golden.py

and the diff under ``tests/golden/`` is reviewed with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from copthrottle import cli, families, verify
from copthrottle.graph import geodesic_between
from copthrottle.strategy import StrategyError, certify_strategy, shadow_guard_simulate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def demo_golden(demo: Path) -> Path:
    return GOLDEN / "demos" / (demo.stem + ".txt")


def verify_all_json() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "--suite", "all", "--format", "json"])
    return out.getvalue()


def _lines(records: list) -> str:
    """A JSON list with one record per line, so a diff names the record."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


def certificates_json() -> str:
    seen = []
    real = verify.certify_strategy

    def record(g, cert):
        seen.append((g, cert))
        return real(g, cert)

    verify.certify_strategy = record
    try:
        verify.run_suite("certificates", seed=42, count=12, max_n=9)
    finally:
        verify.certify_strategy = real
    records = []
    for g, cert in seen:
        out = certify_strategy(g, cert).to_json_obj()
        records.append(
            {"graph": g.name, "edges": [list(e) for e in g.edges()], **cert.to_json_obj(),
             "worst_rounds": out["worst_rounds"], "trace": out["trace"]}
        )
    return _lines(records)


def shadow_guard_json() -> str:
    records = []
    for seed in range(4):
        rng = random.Random(f"shadow-guard:{seed}")
        for _ in range(25):
            n = rng.randint(2, 12)
            g = families.random_connected(n, rng.randrange(10**6), p=rng.choice([0.2, 0.35, 0.5]))
            p = geodesic_between(g, rng.randrange(n), rng.randrange(n))
            for r in (1, 2, 3):
                rec = {"graph": g.name, "path": p, "r": r}
                try:
                    rounds, trace = shadow_guard_simulate(g, p, r)
                    rec.update(rounds=rounds, trace=[[list(c), x] for c, x in trace])
                except StrategyError:
                    rec["error"] = "StrategyError"
                records.append(rec)
    return _lines(records)


GENERATED = {
    "verify_all.json": verify_all_json,
    "certificates.json": certificates_json,
    "shadow_guard.json": shadow_guard_json,
}


def main() -> None:
    (GOLDEN / "demos").mkdir(parents=True, exist_ok=True)
    for name, make in GENERATED.items():
        (GOLDEN / name).write_text(make())
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0:
            raise SystemExit(f"{demo.name} failed:\n{proc.stderr}")
        demo_golden(demo).write_text(proc.stdout)


if __name__ == "__main__":
    main()
