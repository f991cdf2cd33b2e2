"""Trial tables, summaries, chart and markdown rendering."""
import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from schedtune.errors import ConfigError, ProtocolError
from schedtune.report import (
    CSV_SCHEMA_VERSION,
    MethodSummary,
    read_trials_csv,
    render_report_md,
    render_score_chart,
    summarize_trials,
    trial_rows,
    write_summary_csv,
    write_trials_csv,
)
from schedtune.tunenv import TuningEpisode

NAMES = ("z_x", "z_y")


def episode_of(r0, scores, digest="cafe01234567"):
    trials = [(np.array([0.1 * (i + 1), 0.2]), s)
              for i, s in enumerate(scores)]
    return TuningEpisode(r0=r0, initial_action=np.array([0.5, 0.5]), static=np.zeros(0),
                         n_steps=len(scores), trials=trials, scenario_digest=digest)


def test_trial_rows_reference_first():
    rows = trial_rows("exp", "random", 42, episode_of(0.4, [0.5, 0.3]), NAMES)
    assert [r["trial"] for r in rows] == [0, 1, 2]
    assert rows[0]["score"] == repr(0.4)
    assert rows[0]["z_x"] == repr(0.5)
    assert rows[1]["z_x"] == repr(0.1 * 1)
    assert all(r["scenario_seed"] == 42 for r in rows)
    assert all(r["schema_version"] == CSV_SCHEMA_VERSION for r in rows)


def test_trials_round_trip_exact_floats(tmp_path):
    path = tmp_path / "trials.csv"
    scores = [1 / 3, 0.7000000000000001]
    write_trials_csv(path, trial_rows("exp", "bo", 7, episode_of(0.123456789,
                     scores), NAMES), NAMES)
    rows = read_trials_csv(path)
    assert rows[0]["score"] == 0.123456789
    assert rows[1]["score"] == 1 / 3  # repr round-trips float64 exactly
    assert rows[2]["score"] == 0.7000000000000001


def test_append_writes_header_once(tmp_path):
    path = tmp_path / "trials.csv"
    rows = trial_rows("exp", "bo", 1, episode_of(0.1, [0.2]), NAMES)
    write_trials_csv(path, rows, NAMES)
    more = trial_rows("exp", "tpe", 2, episode_of(0.3, [0.4]), NAMES)
    write_trials_csv(path, more, NAMES)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # one header + two episodes of two rows
    assert sum(1 for line in lines if line.startswith("schema_version")) == 1
    assert len(read_trials_csv(path)) == 4


@pytest.mark.parametrize("content", [b"\xff\xfe garbage\n", b"x" * 200_000])
def test_append_to_a_file_that_is_not_csv_fails(tmp_path, content):
    path = tmp_path / "trials.csv"
    path.write_bytes(content)
    rows = trial_rows("exp", "bo", 1, episode_of(0.1, [0.2]), NAMES)
    with pytest.raises(ProtocolError, match="not a CSV table"):
        write_trials_csv(path, rows, NAMES)
    assert path.read_bytes() == content


def test_unknown_schema_version_rejected_with_line(tmp_path):
    path = tmp_path / "trials.csv"
    rows = trial_rows("exp", "bo", 1, episode_of(0.1, [0.2, 0.3]), NAMES)
    rows[2]["schema_version"] = 99
    write_trials_csv(path, rows, NAMES)
    with pytest.raises(ProtocolError, match="line 4: unknown schema version"):
        read_trials_csv(path)


def test_malformed_row_rejected(tmp_path):
    path = tmp_path / "trials.csv"
    rows = trial_rows("exp", "bo", 1, episode_of(0.1, [0.2]), NAMES)
    rows[1]["score"] = "not-a-number"
    write_trials_csv(path, rows, NAMES)
    with pytest.raises(ProtocolError, match="line 3: malformed trial row"):
        read_trials_csv(path)


def test_errors_name_the_line_in_the_file_past_blank_lines(tmp_path):
    path = tmp_path / "trials.csv"
    write_trials_csv(path, trial_rows("exp", "bo", 1, episode_of(0.1, [0.2]), NAMES),
                     NAMES)
    header, first, second = path.read_text().splitlines()
    path.write_text(f"{header}\n\n{first}\n\n{second.rsplit(',', 3)[0]}\n")
    with pytest.raises(ProtocolError, match="line 5: row does not have the header's"):
        read_trials_csv(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read trials table"):
        read_trials_csv(tmp_path / "missing.csv")


# -- summaries ----------------------------------------------------------------

def rows_for(method, seed, r0, scores, digest=None):
    digest = digest or f"{seed:012x}"
    return trial_rows("exp", method, seed, episode_of(r0, scores, digest),
                      NAMES)


def as_read(rows):
    """Convert writer-shaped rows into reader-shaped rows."""
    return [{
        "experiment": r["experiment"],
        "method": r["method"],
        "scenario_seed": r["scenario_seed"],
        "scenario_digest": r["scenario_digest"],
        "trial": r["trial"],
        "score": float(r["score"]),
    } for r in rows]


def test_summarize_recomputes_best_from_tuned_trials():
    # reference 0.8 beats every tuned trial; best must still be max of tuned
    rows = as_read(rows_for("bo", 1, 0.8, [0.5, 0.6, 0.55]))
    (summary,) = summarize_trials(rows)
    assert summary.mean_reference == pytest.approx(0.8)
    assert summary.mean_best == pytest.approx(0.6)
    assert summary.mean_improvement == pytest.approx((0.6 - 0.8) / 0.8)
    assert summary.win_rate == 0.0


def test_summarize_means_over_scenarios():
    rows = as_read(rows_for("bo", 1, 0.4, [0.6]) +
                   rows_for("bo", 2, 0.5, [0.5]) +  # tie: not a win
                   rows_for("random", 1, 0.4, [0.3]))
    summaries = summarize_trials(rows)
    assert [s.method for s in summaries] == ["bo", "random"]  # sorted
    bo, random = summaries
    assert bo.n_scenarios == 2
    assert bo.mean_reference == pytest.approx(0.45)
    assert bo.mean_best == pytest.approx(0.55)
    expected = ((0.6 - 0.4) / 0.4 + 0.0) / 2
    assert bo.mean_improvement == pytest.approx(expected)
    assert bo.win_rate == pytest.approx(0.5)
    assert random.win_rate == 0.0
    assert random.experiment == "exp"


def test_summarize_duplicate_trial_rejected():
    rows = as_read(rows_for("bo", 1, 0.4, [0.6]))
    rows.append(dict(rows[-1]))
    with pytest.raises(ProtocolError, match="duplicate trial"):
        summarize_trials(rows)


def test_summarize_missing_reference_rejected():
    rows = as_read(rows_for("bo", 1, 0.4, [0.6]))[1:]
    with pytest.raises(ProtocolError, match="lacks the reference trial"):
        summarize_trials(rows)


def test_summarize_requires_tuned_trials():
    rows = as_read(rows_for("bo", 1, 0.4, [0.6]))[:1]
    with pytest.raises(ProtocolError, match="no tuned trials"):
        summarize_trials(rows)


def test_summarize_empty_rejected():
    with pytest.raises(ConfigError, match="no trial rows"):
        summarize_trials([])


def test_summarize_improvement_floors_tiny_reference():
    rows = as_read(rows_for("bo", 1, 0.0, [1e-7]))
    (summary,) = summarize_trials(rows)
    assert summary.mean_improvement == pytest.approx(1e-7 / 1e-6)


@pytest.mark.parametrize("cases", [
    [(0.0, [0.3, 0.1])],
    [(0.8, [0.6, 0.7])],
    [(0.5, [0.5, 0.2])],
    [(0.0, [0.3]), (0.8, [0.6, 0.7]), (0.5, [0.5]), (0.25, [0.9, 0.4]),
     (1e-7, [2e-7])],
], ids=["zero-r0", "best-below-r0", "best-equals-r0", "mixed"])
def test_summary_improvement_is_the_mean_terminal_reward(tmp_path, cases):
    # The reward the agent trains on and the statistic summary.csv reports
    # are one formula; through the written table they agree bit for bit.
    episodes = [episode_of(r0, scores, digest=f"{i:012x}")
                for i, (r0, scores) in enumerate(cases)]
    path = tmp_path / "trials.csv"
    write_trials_csv(path, [row for i, ep in enumerate(episodes)
                            for row in trial_rows("exp", "bo", i, ep, NAMES)], NAMES)
    (summary,) = summarize_trials(read_trials_csv(path))
    assert summary.mean_improvement == np.mean([ep.improvement for ep in episodes])


def test_summary_csv_round_trip(tmp_path):
    path = tmp_path / "summary.csv"
    summaries = [MethodSummary("exp", "bo", 3, 0.45, 0.6, 0.333333, 2 / 3)]
    write_summary_csv(path, summaries)
    with path.open(newline="") as fh:
        (loaded,) = list(csv.DictReader(fh))
    assert loaded == {
        "schema_version": str(CSV_SCHEMA_VERSION), "experiment": "exp",
        "method": "bo", "n_scenarios": "3", "mean_reference": "0.450000",
        "mean_best": "0.600000", "mean_improvement": "0.333333",
        "win_rate": "0.666667",
    }


def test_summary_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(path, [MethodSummary("exp+grid", "bo", 3, 0.45, 0.6, 0.333333, 2 / 3),
                             MethodSummary("exp+grid", "random", 3, 0.8, 0.6, -0.25, 0.0)])
    assert path.read_bytes() == (
        b"schema_version,experiment,method,n_scenarios,mean_reference,mean_best,"
        b"mean_improvement,win_rate\r\n"
        b"1,exp+grid,bo,3,0.450000,0.600000,0.333333,0.666667\r\n"
        b"1,exp+grid,random,3,0.800000,0.600000,-0.250000,0.000000\r\n")


# -- rendering ----------------------------------------------------------------

SUMMARIES = [
    MethodSummary("exp", "fixed", 4, 0.5, 0.5, 0.0, 0.0),
    MethodSummary("exp", "random", 4, 0.5, 0.72, 0.45, 1.0),
]


def test_chart_is_well_formed_svg():
    svg = render_score_chart(SUMMARIES)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    text = ET.tostring(root, encoding="unicode")
    assert "fixed" in text and "random" in text
    assert "0.720" in text  # bar value label


def test_chart_bar_heights_scale_with_score():
    svg = render_score_chart(SUMMARIES)
    root = ET.fromstring(svg)
    ns = {"s": "http://www.w3.org/2000/svg"}
    heights = sorted(float(r.get("height")) for r in root.findall("s:rect", ns)
                     if r.get("fill", "").startswith("#")
                     and float(r.get("height")) > 20)  # skip legend swatches
    # four bars: 0.5, 0.5, 0.5, 0.72 of the plot height (rounded to 0.1 px)
    assert len(heights) == 4
    assert heights[3] / heights[0] == pytest.approx(0.72 / 0.5, rel=1e-2)


def test_chart_requires_data():
    with pytest.raises(ConfigError, match="nothing to plot"):
        render_score_chart([])


def test_report_markdown_contents():
    text = render_report_md(SUMMARIES, config_echo={"name": "exp"})
    assert "| fixed | 4 | 0.5000 | 0.5000 | +0.0000 | 0% |" in text
    assert "| random | 4 | 0.5000 | 0.7200 | +0.4500 | 100% |" in text
    assert "![score chart](scores.svg)" in text
    assert '"name": "exp"' in text


def test_report_markdown_without_config_echo():
    text = render_report_md(SUMMARIES)
    assert "## Configuration" not in text
