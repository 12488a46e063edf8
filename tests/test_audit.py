"""Tests for the complexity audit against the closed-form cost table."""

import re

import pytest

from otfsim.audit import (
    audit_report,
    measured_cm,
    predicted_cm,
    proposed_to_ofdm_ratio,
    write_report_csv,
)


class TestPredicted:
    def test_proposed_mod_spot_value(self):
        assert predicted_cm("proposed", "mod", 512, 16) == 16384

    def test_ofdm_mod_spot_value(self):
        assert predicted_cm("ofdm", "mod", 512, 16) == 36864

    def test_reference_demod_spot_value(self):
        assert predicted_cm("reference", "demod", 8, 4) == 32 * 3 + 16 * 3

    def test_all_512_16_values(self):
        assert predicted_cm("reference", "mod", 512, 16) == 90112
        assert predicted_cm("reference", "demod", 512, 16) == 94208
        assert predicted_cm("ofdm", "demod", 512, 16) == 36864
        assert predicted_cm("proposed", "demod", 512, 16) == 20480

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            predicted_cm("ofdm", "mod", 12, 4)
        with pytest.raises(ValueError):
            predicted_cm("ofdm", "mod", 16, 6)

    def test_rejects_unknown_structure(self):
        with pytest.raises(ValueError):
            predicted_cm("simd", "mod", 8, 4)


class TestMeasured:
    def test_proposed_mod_8_4(self):
        assert measured_cm("proposed", "mod", 8, 4) == 32

    def test_reference_mod_8_4(self):
        assert measured_cm("reference", "mod", 8, 4) == 128

    def test_ofdm_mod_8_4(self):
        assert measured_cm("ofdm", "mod", 8, 4) == 48

    @pytest.mark.parametrize("count", [predicted_cm, measured_cm])
    @pytest.mark.parametrize(
        "case, message",
        [
            (("reference", "foo", 8, 4), "direction must be one of ('mod', 'demod'), got 'foo'"),
            (("simd", "mod", 8, 4), "structure must be one of"),
            (("proposed", "demod", 12, 4), "m must be a power of two >= 2, got 12"),
        ],
    )
    def test_both_counts_refuse_the_same_cases(self, count, case, message):
        # neither count runs a case that the other refuses
        with pytest.raises(ValueError, match=re.escape(message)):
            count(*case)


class TestReport:
    def test_sweep_all_match(self):
        rows = audit_report([8, 16, 32], [2, 4, 8])
        assert len(rows) == 9 * 6
        assert all(row.match for row in rows)

    @pytest.mark.parametrize(
        "m_list, n_list, message",
        [
            ([], [8], "m_list must be a non-empty list of powers of two >= 2, got []"),
            ([8], (), "n_list must be a non-empty list of powers of two >= 2, got ()"),
        ],
    )
    def test_empty_sizes_refused_by_name(self, m_list, n_list, message):
        # an empty table would pass "all predicted == measured" vacuously
        with pytest.raises(ValueError, match=re.escape(message)):
            audit_report(m_list, n_list)

    def test_n_equals_m_costs_coincide(self):
        assert predicted_cm("proposed", "mod", 16, 16) == predicted_cm("ofdm", "mod", 16, 16)

    def test_ratio(self):
        assert proposed_to_ofdm_ratio(512, 16) == pytest.approx(4 / 9)

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "audit.csv"
        write_report_csv(path, audit_report([8], [4]))
        lines = path.read_text().splitlines()
        assert lines[0] == "structure,direction,M,N,predicted,measured,match"
        assert len(lines) == 7
        assert lines[1].split(",")[-1] == "true"
