"""EXPERIMENTS.md states what the tree prints: its headline and its
Figure 8 geomeans equal :func:`repro.harness.figures.headline_claim` and
:func:`repro.harness.figures.fig8_overheads` at seed 7, rounded as
``report`` prints them."""

import re
from pathlib import Path

from repro.harness import parallel
from repro.harness.figures import GEOMEAN, fig8_overheads, headline_claim

DOC = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()


def _section(title):
    start = DOC.index(f"### {title}")
    return DOC[start:DOC.index("\n#", start + 1)]


def test_headline_matches_the_tree(monkeypatch):
    monkeypatch.setattr(parallel, "_default_jobs", 1)
    claim = headline_claim(seed=7)
    printed = [
        f"{claim[name]:+.1%}" for name in ("fence_overhead_vs_logp", "sp_overhead_vs_logp")
    ]
    stated = re.search(r"Measured: (\S+%) → (\S+%)", _section("Headline claim"))
    assert list(stated.groups()) == printed


def test_fig8_geomeans_match_the_tree(monkeypatch):
    monkeypatch.setattr(parallel, "_default_jobs", 1)
    section = _section("Figure 8")
    for label, row in fig8_overheads(seed=7).items():
        line = re.search(rf"^{re.escape(label)} .*$", section, re.M)
        assert line is not None, label
        assert line.group().split()[-1] == f"{row[GEOMEAN]:+.1%}", label
