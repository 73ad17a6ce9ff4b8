import pytest

from repro.workloads.alibaba_wan import ALIBABA_WAN_CDF
from repro.workloads.google_rpc import GOOGLE_RPC_CDF
from repro.workloads.tracefile import load_builtin, parse_cdf_text
from repro.workloads.websearch import WEBSEARCH_CDF


class TestParse:
    def test_basic(self):
        cdf = parse_cdf_text("100 0.5\n200 1.0\n", name="t")
        assert cdf.quantile(1.0) == 200

    def test_comments_and_blank_lines(self):
        cdf = parse_cdf_text("# header\n\n100 0.5\n200 1.0  # tail\n")
        assert cdf.sizes[-1] == 200

    def test_malformed_field_count(self):
        with pytest.raises(ValueError, match="expected"):
            parse_cdf_text("100 0.5 9\n")

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_cdf_text("abc 0.5\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="no CDF points"):
            parse_cdf_text("# only comments\n")


class TestBuiltins:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("websearch", WEBSEARCH_CDF),
            ("alibaba_wan", ALIBABA_WAN_CDF),
            ("google_rpc", GOOGLE_RPC_CDF),
        ],
    )
    def test_shipped_files_match_embedded(self, name, expected):
        loaded = load_builtin(name)
        assert loaded.sizes == expected.sizes
        assert loaded.probs == pytest.approx(expected.probs)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="available"):
            load_builtin("netflix")
