"""The ``python -m repro.analysis`` entry point gates correctly."""

from repro.analysis.__main__ import main


class TestCli:
    def test_full_run_is_clean(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("--")] == [
            "-- lint: clean", "-- plans: clean", "-- corpus: clean"]

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RA001" in out and "RA002" in out and "RA003" in out
