"""Paper tables regenerated through ``repro-lab run PRESET``."""

from repro.lab.cli import main


class TestCLI:
    def test_single_experiment(self, capsys):
        assert main(["run", "sec5"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3" in out

    def test_quick_fig5(self, capsys):
        assert main(["run", "fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "multilevel-wa" in out

    def test_table1_through_cli(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "predicted winner" in capsys.readouterr().out
