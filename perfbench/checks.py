"""Correctness checks on what the commands wrote.

Models are read from ``model.json`` directly, without sindykit's own
parser, so a parser defect cannot hide a wrong model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Model:
    state_names: tuple[str, ...]
    term_names: tuple[str, ...]
    coefficients: tuple[tuple[float, ...], ...]  # one row per term, one column per equation


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON")


def strict_json(text: str):
    """Parse JSON, refusing NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def term_name(kind: str, exponents: list[int], harmonic: int, names: tuple[str, ...]) -> str:
    if kind == "monomial":
        return "".join(n * e for n, e in zip(names, exponents)) or "1"
    return f"{kind}({harmonic}{names[exponents.index(1)]})"


def load_model(path: Path) -> Model:
    doc = strict_json(path.read_text())
    names = tuple(doc["state_names"])
    terms = tuple(term_name(t["kind"], t["exponents"], t["harmonic"], names)
                  for t in doc["terms"])
    coef = tuple(tuple(float(v) for v in row) for row in doc["coefficients"])
    if len(coef) != len(terms) or any(len(row) != len(names) for row in coef):
        raise ValueError(f"{path}: coefficient matrix does not match terms x states")
    return Model(names, terms, coef)


def support_errors(model: Model, truth: list[dict[str, float]]) -> int:
    """Library cells whose zero/nonzero status differs from the true model's."""
    errors = 0
    for i, term in enumerate(model.term_names):
        for k, row in enumerate(truth):
            errors += (model.coefficients[i][k] != 0.0) != (term in row)
    return errors


def coef_max_rel_err(model: Model, truth: list[dict[str, float]]) -> float:
    """Worst relative error over the true terms; a true term missing from the library is inf."""
    index = {t: i for i, t in enumerate(model.term_names)}
    worst = 0.0
    for k, row in enumerate(truth):
        for term, value in row.items():
            got = model.coefficients[index[term]][k] if term in index else float("inf")
            worst = max(worst, abs(got - value) / abs(value))
    return worst


def artifact_digests(pass_dir: Path) -> dict[str, str]:
    """SHA-256 of every file a pass wrote, keyed by path relative to the pass.

    The pass directory itself appears in run reports (as artifact paths), so
    it is replaced by a fixed token before hashing.
    """
    token = str(pass_dir).encode()
    return {
        str(p.relative_to(pass_dir)):
            hashlib.sha256(p.read_bytes().replace(token, b"<pass>")).hexdigest()
        for p in sorted(pass_dir.rglob("*")) if p.is_file()
    }


def digest_mismatches(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    return sorted(k for k in reference.keys() | other.keys() if reference.get(k) != other.get(k))


@dataclass
class CommandRun:
    command: str
    seconds: float
    exit_code: int | None  # None when the command raised
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.exit_code != 0


@dataclass
class Tally:
    """Commands attempted and failed over a whole run."""

    runs: list[CommandRun] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.runs)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# A faithful identified Lorenz model (sigma=10, beta=8/3, rho=28) stays in
# this box over a long horizon, and its error against the true system
# saturates at the attractor's scale (the acceptance suite's bounds).
LORENZ_BOX = ((-30.0, 30.0), (-35.0, 35.0), (-5.0, 60.0))
ERROR_SATURATION = 60.0


def compare_problems(out_dir: Path) -> list[str]:
    """What is wrong with a Lorenz ``compare`` run's curves and long-horizon range."""
    problems = []
    summary = strict_json((out_dir / "run_report.json").read_text())["summary"]
    for key, entry in sorted(summary.items()):
        if not key.startswith("eta_"):
            continue
        if "failed" in entry:
            problems.append(f"compare {key}: {entry['failed']}")
        elif not entry["tail_mean"] < ERROR_SATURATION:
            problems.append(
                f"compare {key}: tail error {entry['tail_mean']} above the attractor scale")
    for curve in sorted(out_dir.glob("error_eta_*.csv")):
        first = float(curve.read_text().splitlines()[1].split(",")[1])
        if not first < 1e-9:
            problems.append(f"compare {curve.name}: error {first} at t=0")
    box = summary.get("long_horizon")
    if box is None:
        problems.append("compare: no long-horizon run")
    else:
        for i, (lo, hi) in enumerate(LORENZ_BOX):
            if not lo <= box["min"][i] <= box["max"][i] <= hi:
                problems.append(f"compare: long-horizon state {i} leaves [{lo}, {hi}]")
    return problems
