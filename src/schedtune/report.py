"""Result aggregation and reporting for tuning experiments.

Trial tables use a versioned CSV schema.  Each (method, scenario) pair
contributes one reference evaluation at trial index 0 (the fixed initial
weights) and its tuned trials at indices >= 1; summaries recompute the best
tuned score from the raw rows rather than trusting any precomputed column.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError
from .tunenv import improvement

CSV_SCHEMA_VERSION = 1

TRIAL_FIELDS = ("schema_version", "experiment", "method", "scenario_seed",
                "scenario_digest", "trial", "score")
SUMMARY_FIELDS = ("schema_version", "experiment", "method", "n_scenarios",
                  "mean_reference", "mean_best", "mean_improvement",
                  "win_rate")
# The report's chart, next to report.md in the output directory.
CHART_FILENAME = "scores.svg"


@dataclass(frozen=True)
class MethodSummary:
    experiment: str
    method: str
    n_scenarios: int
    mean_reference: float
    mean_best: float
    mean_improvement: float
    win_rate: float


def trial_rows(experiment: str, method: str, scenario_seed: int, episode,
               action_names) -> list[dict]:
    """Flatten one tuning episode into CSV rows, reference trial first."""
    def row(trial, action, score):
        out = {
            "schema_version": CSV_SCHEMA_VERSION,
            "experiment": experiment,
            "method": method,
            "scenario_seed": scenario_seed,
            "scenario_digest": episode.scenario_digest,
            "trial": trial,
            "score": repr(float(score)),
        }
        for name, value in zip(action_names, action):
            out[name] = repr(float(value))
        return out

    rows = [row(0, episode.initial_action, episode.r0)]
    rows.extend(row(i, action, score)
                for i, (action, score) in enumerate(episode.trials, start=1))
    return rows


def trials_header(action_names) -> list[str]:
    return list(TRIAL_FIELDS) + list(action_names)


def write_trials_csv(path, rows, action_names) -> None:
    append_rows(path, trials_header(action_names), rows)


def append_rows(path, header, rows) -> None:
    """Append the dicts ``rows`` to the CSV table ``path`` under ``header``,
    which a missing or empty file gets first (see :func:`starts_new_table`)."""
    new_file = starts_new_table(path, header)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        if new_file:
            writer.writeheader()
        writer.writerows(rows)


def starts_new_table(path, header) -> bool:
    """Whether appending to the CSV file ``path`` must write ``header``
    first: True when the file is missing or empty, False when its header is
    ``header``.  Any other header fails, since appended rows would land
    under columns that do not name them."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            existing = next(csv.reader(fh), None)
    except OSError:
        return True
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ProtocolError(f"{path}: not a CSV table ({exc})") from exc
    if existing is None:
        return True
    if existing != list(header):
        raise ProtocolError(f"{path} has the columns {existing}, "
                            f"but this run writes {list(header)}")
    return False


def read_trials_csv(path) -> list[dict]:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            # line_num counts the blank lines DictReader skips.
            raw = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read trials table {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ProtocolError(f"{path}: not a CSV table ({exc})") from exc
    rows = []
    for line_no, row in raw:
        # DictReader files surplus fields under None and fills missing ones with None.
        if None in row or None in row.values():
            raise ProtocolError(f"{path} line {line_no}: row does not have the "
                                f"header's {len(reader.fieldnames)} fields")
        version = row.get("schema_version")
        if version != str(CSV_SCHEMA_VERSION):
            raise ProtocolError(
                f"{path} line {line_no}: unknown schema version {version!r}, "
                f"this build reads version {CSV_SCHEMA_VERSION}")
        try:
            rows.append({
                "experiment": row["experiment"],
                "method": row["method"],
                "scenario_seed": int(row["scenario_seed"]),
                "scenario_digest": row["scenario_digest"],
                "trial": int(row["trial"]),
                "score": float(row["score"]),
            })
        except (KeyError, ValueError) as exc:
            raise ProtocolError(
                f"{path} line {line_no}: malformed trial row ({exc})") from exc
        score = rows[-1]["score"]
        if not np.isfinite(score):
            raise ProtocolError(f"{path} line {line_no}: score {row['score']} is not finite")
        if not 0.0 <= score <= 1.0:
            raise ProtocolError(f"{path} line {line_no}: score {row['score']} lies outside [0, 1]")
        # int() and float() also read forms the writer never puts in, such as
        # "+0", "0.50", "1_0", " 1 " or non-ASCII digits.
        for name, written in (("scenario_seed", str), ("trial", str), ("score", repr)):
            if written(rows[-1][name]) != row[name]:
                raise ProtocolError(f"{path} line {line_no}: {name} {row[name]!r} "
                                    f"is not a number as this program writes it")
    return rows


def require_paired(rows) -> None:
    """Fail unless every method covers the same (scenario_seed,
    scenario_digest) set, so per-method means compare like with like."""
    covered: dict[str, set] = {}
    for row in rows:
        covered.setdefault(row["method"], set()).add(
            (row["scenario_seed"], row["scenario_digest"]))
    if not covered:
        return
    (first, reference), *others = sorted(covered.items())
    for method, scenarios in others:
        if scenarios != reference:
            seed, digest = min(scenarios ^ reference)
            owner = first if (seed, digest) in reference else method
            raise ProtocolError(
                f"trials table is unpaired: methods {first!r} and {method!r} "
                f"cover different scenarios (seed {seed}, digest {digest} "
                f"only under {owner!r})")


def summarize_trials(rows) -> list[MethodSummary]:
    """Aggregate per method; best scores are recomputed from trials >= 1."""
    if not rows:
        raise ConfigError("no trial rows to summarize")
    groups: dict[tuple, dict[int, float]] = {}
    experiments = set()
    for row in rows:
        experiments.add(row["experiment"])
        key = (row["method"], row["scenario_seed"], row["scenario_digest"])
        trials = groups.setdefault(key, {})
        if row["trial"] in trials:
            raise ProtocolError(
                f"duplicate trial {row['trial']} for method {row['method']} "
                f"scenario {row['scenario_seed']}")
        trials[row["trial"]] = row["score"]
    experiment = "+".join(sorted(experiments))

    per_method: dict[str, list[tuple[float, float]]] = {}
    for (method, seed, _digest), trials in groups.items():
        if 0 not in trials:
            raise ProtocolError(
                f"method {method} scenario {seed} lacks the reference trial")
        tuned = [score for trial, score in trials.items() if trial >= 1]
        if not tuned:
            raise ProtocolError(
                f"method {method} scenario {seed} has no tuned trials")
        per_method.setdefault(method, []).append((trials[0], max(tuned)))

    summaries = []
    for method in sorted(per_method):
        reference, best = np.array(per_method[method]).T
        summaries.append(MethodSummary(
            experiment=experiment,
            method=method,
            n_scenarios=len(best),
            mean_reference=float(reference.mean()),
            mean_best=float(best.mean()),
            mean_improvement=float(improvement(best, reference).mean()),
            win_rate=float(np.mean(best > reference)),
        ))
    return summaries


def write_summary_csv(path, summaries) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        for s in summaries:
            writer.writerow({
                "schema_version": CSV_SCHEMA_VERSION,
                "experiment": s.experiment,
                "method": s.method,
                "n_scenarios": s.n_scenarios,
                "mean_reference": f"{s.mean_reference:.6f}",
                "mean_best": f"{s.mean_best:.6f}",
                "mean_improvement": f"{s.mean_improvement:.6f}",
                "win_rate": f"{s.win_rate:.6f}",
            })


# -- plotting ----------------------------------------------------------------

_BAR_COLORS = ("#9aa5b1", "#3472b8")


def render_score_chart(summaries) -> str:
    """Grouped bar chart (reference vs best score) as a standalone SVG."""
    if not summaries:
        raise ConfigError("nothing to plot")
    width, height = 640, 360
    left, right, top, bottom = 60, 20, 48, 56
    plot_w = width - left - right
    plot_h = height - top - bottom
    n = len(summaries)
    group_w = plot_w / n
    bar_w = min(48.0, group_w / 3.0)

    def y_of(value):
        return top + plot_h * (1.0 - min(max(value, 0.0), 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">Tuned score by method</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(tick)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" '
                     f'y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:g}</text>')
    for i, s in enumerate(summaries):
        cx = left + group_w * (i + 0.5)
        for j, (value, color) in enumerate(
                ((s.mean_reference, _BAR_COLORS[0]),
                 (s.mean_best, _BAR_COLORS[1]))):
            x = cx + (j - 1) * bar_w + bar_w / 2
            y = y_of(value)
            parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                         f'height="{top + plot_h - y:.1f}" fill="{color}"/>')
            parts.append(f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" '
                         f'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="10">{value:.3f}</text>')
        parts.append(f'<text x="{cx:.1f}" y="{height - bottom + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{s.method}</text>')
    legend_y = height - 16
    parts.append(f'<rect x="{left}" y="{legend_y - 10}" width="12" height="12" '
                 f'fill="{_BAR_COLORS[0]}"/>')
    parts.append(f'<text x="{left + 18}" y="{legend_y}" font-family="sans-serif" '
                 f'font-size="12">initial weights</text>')
    parts.append(f'<rect x="{left + 130}" y="{legend_y - 10}" width="12" '
                 f'height="12" fill="{_BAR_COLORS[1]}"/>')
    parts.append(f'<text x="{left + 148}" y="{legend_y}" '
                 f'font-family="sans-serif" font-size="12">best tuned</text>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" '
                 f'y2="{top + plot_h}" stroke="#333333"/>')
    parts.append(f'<line x1="{left}" y1="{top + plot_h}" '
                 f'x2="{width - right}" y2="{top + plot_h}" stroke="#333333"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_report_md(summaries, config_echo: dict | None = None) -> str:
    lines = ["# Tuning results", ""]
    experiment = summaries[0].experiment if summaries else ""
    lines.append(f"Experiment: `{experiment}`")
    lines.append("")
    lines.append("| method | scenarios | mean initial | mean best tuned "
                 "| mean improvement | win rate |")
    lines.append("|---|---:|---:|---:|---:|---:|")
    for s in summaries:
        lines.append(
            f"| {s.method} | {s.n_scenarios} | {s.mean_reference:.4f} "
            f"| {s.mean_best:.4f} | {s.mean_improvement:+.4f} "
            f"| {s.win_rate:.0%} |")
    lines.append("")
    lines.append(f"![score chart]({CHART_FILENAME})")
    lines.append("")
    lines.append("Improvement is relative to the score of the fixed initial "
                 "weights on the same scenario; the win rate counts scenarios "
                 "where some tuned trial beat that reference.")
    if config_echo is not None:
        lines.append("")
        lines.append("## Configuration")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(config_echo, indent=2, sort_keys=True))
        lines.append("```")
    lines.append("")
    return "\n".join(lines)
