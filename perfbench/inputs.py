"""Seeded input generators.

Every input is a pure function of ``(seed, index)``: the same seed gives
the same datasets and feeds.  The program under test only ever receives
the generated data (packed datasets on disk, arrays handed to the
monitor host), never the seed.
"""

from __future__ import annotations

import numpy as np


def seed_of(seed: int, index: int, stream: int = 0) -> int:
    """A distinct generator seed per (run seed, input index, purpose)."""
    sequence = np.random.SeedSequence([seed, index, stream])
    return int(sequence.generate_state(1)[0])


def hiring(seed: int, index: int, n_rows: int, direct_bias: float):
    """A ``make_hiring`` population with planted label bias against women."""
    from repro.data.generators import make_hiring

    return make_hiring(
        n_rows, direct_bias=direct_bias, random_state=seed_of(seed, index)
    )


#: the lattice workload's shape: five 7-category protected attributes
LATTICE_ATTRS = 5
LATTICE_CATS = 7
#: the planted order-2 subgroup and its positive-rate lift
PLANTED = (("g0", "c0"), ("g1", "c1"))
PLANTED_LIFT = 0.22


def lattice(seed: int, index: int, n_rows: int):
    """A 5x7 protected-attribute lattice with one planted order-2 gap."""
    from repro.data import Column, Schema, TabularDataset

    rng = np.random.default_rng(seed_of(seed, index, 1))
    cats = tuple(f"c{i}" for i in range(LATTICE_CATS))
    columns, data = [], {}
    for i in range(LATTICE_ATTRS):
        name = f"g{i}"
        columns.append(
            Column(name, kind="categorical", role="protected", categories=cats)
        )
        data[name] = rng.choice(np.array(cats), size=n_rows)
    columns.append(Column("y", kind="binary", role="label"))
    (a, va), (b, vb) = PLANTED
    rate = 0.5 + PLANTED_LIFT * ((data[a] == va) & (data[b] == vb))
    data["y"] = (rng.random(n_rows) < rate).astype(np.int64)
    return TabularDataset(Schema(tuple(columns)), data)


#: monitor feed shape
MONITOR_STREAMS = 64
MONITOR_WINDOW = 500
MONITOR_CHUNK = 250
MONITOR_WINDOWS_PER_PASS = 16
MONITOR_DRIFTED = 4
#: baseline: 5% of women's positive predictions flipped; after onset 45%
BASE_FLIP = 0.05
DRIFT_FLIP = 0.45


def monitor_feeds(seed: int):
    """Per-stream arrays for one monitoring pass, plus the drift plan.

    Returns ``(feeds, drifted)``: ``feeds[name] = (y, p, sex, race)`` and
    ``drifted[name] = onset window`` for the streams whose predictions
    start discriminating at that window.
    """
    rng = np.random.default_rng(seed_of(seed, 0, 2))
    n = MONITOR_WINDOW * MONITOR_WINDOWS_PER_PASS
    picked = rng.choice(MONITOR_STREAMS, size=MONITOR_DRIFTED, replace=False)
    drifted = {
        f"s{int(i):02d}": int(rng.integers(6, 11)) for i in sorted(picked)
    }
    feeds = {}
    for i in range(MONITOR_STREAMS):
        name = f"s{i:02d}"
        sex = np.where(rng.random(n) < 0.5, "female", "male")
        race = rng.choice(
            np.array(["groupa", "groupb", "groupc", "groupd"]), size=n
        )
        y = (rng.random(n) < 0.5).astype(np.int64)
        flip = np.full(n, BASE_FLIP)
        if name in drifted:
            flip[drifted[name] * MONITOR_WINDOW:] = DRIFT_FLIP
        p = y.copy()
        p[(sex == "female") & (rng.random(n) < flip)] = 0
        feeds[name] = (y, p, sex, race)
    return feeds, drifted
