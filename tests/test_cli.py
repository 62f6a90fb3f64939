"""The `supercusp` console script, driven through cli.main."""

from __future__ import annotations

import json

import pytest

from supercusp.cli import main
from supercusp.correspond import full_report, reports_csv, reports_json


class TestReport:
    def test_json_is_the_report(self, capsys):
        assert main(["report", "G2:adjoint:*"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(reports_json(full_report("G2:adjoint:*")),
                                 sort_keys=True) + "\n"

    def test_json_is_the_default_format(self, capsys):
        main(["report", "2A5:adjoint:w1"])
        default = capsys.readouterr().out
        main(["report", "2A5:adjoint:w1", "--format", "json"])
        assert capsys.readouterr().out == default
        assert json.loads(default)["rows"]

    def test_csv(self, capsys):
        assert main(["report", "B3:sc:*", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out == reports_csv(full_report("B3:sc:*"))
        assert out.startswith("spec,form,support,")

    @pytest.mark.parametrize("spec, field", [
        ("G2:adjoint", "expected TYPE:ISOGENY:TWIST"),
        ("X9:adjoint:*", "field 1"),
        ("A200:adjoint:*", "field 1"),
        ("A0:sc:*", "field 1"),
        ("A03:adjoint:*", "field 1"),
        ("B1:adjoint:*", "field 1"),
        ("E5:adjoint:*", "field 1"),
        ("G3:adjoint:*", "field 1"),
        ("3A4:adjoint:*", "field 1"),
        ("1A2:adjoint:*", "field 1"),
        ("2B3:adjoint:*", "field 1"),
        ("2D3:adjoint:*", "field 1"),
        ("A1\u0663:adjoint:*", "field 1"),
        ("A11:d1\u0662:*", "field 2"),
        ("A3:d5:*", "field 2"),
        ("A2:d0:*", "field 2"),
        ("A5:d02:*", "field 2"),
        ("2D4:hs1:*", "field 2"),
        ("A3:adjoint:w9", "field 3"),
        ("2A3:adjoint:an", "field 3"),
    ])
    def test_bad_spec_exits_2(self, capsys, spec, field):
        with pytest.raises(SystemExit) as exc:
            main(["report", spec])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err
        assert spec in captured.err

    @pytest.mark.parametrize("spec, tokens", [
        ("2A2:adjoint:w1", "(tokens: 1, *)"),
        ("A3:adjoint:w9", "(tokens: 1, w1, w2, w3, an, *)"),
        ("2A3:adjoint:an", "(tokens: 1, w1, *)"),
    ])
    def test_bad_twist_lists_the_tokens(self, capsys, spec, tokens):
        with pytest.raises(SystemExit) as exc:
            main(["report", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "field 3" in err
        assert err.rstrip().endswith(tokens)

    def test_bad_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "G2:adjoint:*", "--format", "xml"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
