"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from jumpflow import evolution


def lipschitz_members(space, seed, count=4):
    """The test side's continuity battery on a space: the constant and
    ``count`` random functions 1-Lipschitz in its metric, each the minimum of
    shifted distance cones d(., a) + c over up to three anchors a, clipped to
    [-1, 1].  ``seed`` draws the anchors and the shifts; the library certifies
    the whole class these lie in and draws nothing."""
    rng = np.random.default_rng(seed)
    members = [np.ones(space.n)]
    for _ in range(count):
        anchors = rng.choice(space.n, min(3, space.n), replace=False)
        cones = space.dist[:, anchors] + rng.uniform(-1.0, 1.0, anchors.size)
        members.append(np.clip(cones.min(axis=1), -1.0, 1.0))
    return members


@pytest.fixture
def battery():
    return lipschitz_members


@pytest.fixture
def flux_read_error(monkeypatch):
    """The ValueError message that both readers of a flux CSV,
    `flux_csv_is_linear` and `flux_from_csv`, raise for a file, each read in
    blocks of CSV_BLOCK_LINES, 48 and 7 values; the test fails unless every
    reading raises that one message."""
    default = evolution.CSV_BLOCK_LINES

    def read_error(path, traj, coup):
        messages = set()
        for block in (default, 48, 7):
            monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", block)
            for read in (evolution.flux_csv_is_linear, evolution.flux_from_csv):
                with pytest.raises(ValueError) as info:
                    read(path, traj, coup)
                messages.add(str(info.value))
        monkeypatch.setattr(evolution, "CSV_BLOCK_LINES", default)
        assert len(messages) == 1, messages
        return messages.pop()

    return read_error
