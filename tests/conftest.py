"""Fixtures shared by the test modules."""

import pytest

from jumpflow import evolution


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
