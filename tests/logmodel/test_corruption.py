"""Unit tests for garbled-field detection."""

from repro.logmodel.corruption import looks_garbled


class TestLooksGarbled:
    def test_hostnames_are_fine(self):
        assert not looks_garbled("tbird-admin1")
        assert not looks_garbled("R02-M1-N0-C:J12-U11")

    def test_control_bytes_are_garbage(self):
        assert looks_garbled("\x00\x13\x7fx")

    def test_empty_is_not_garbled(self):
        assert not looks_garbled("")
