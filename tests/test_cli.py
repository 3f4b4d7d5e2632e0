"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestGenerate:
    def test_rmat(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        rc = main(["generate", "rmat", "--scale", "7", "-o", str(out)])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_pa_simple(self, tmp_path):
        out = tmp_path / "pa.npz"
        rc = main(["generate", "pa", "--vertices", "100", "--attach", "3",
                   "--simple", "-o", str(out)])
        assert rc == 0
        from repro.graph.io import load_binary_edges

        edges = load_binary_edges(out)
        assert edges.num_vertices == 100

    def test_sw(self, tmp_path):
        out = tmp_path / "sw.npz"
        rc = main(["generate", "sw", "--vertices", "64", "--degree", "4",
                   "--rewire", "0.1", "-o", str(out)])
        assert rc == 0


class TestAlgorithms:
    def test_bfs_generated(self, capsys):
        rc = main(["bfs", "--scale", "7", "-p", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MTEPS" in out and "reached" in out

    def test_bfs_from_file(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        main(["generate", "rmat", "--scale", "7", "--simple", "-o", str(out)])
        capsys.readouterr()
        rc = main(["bfs", "--graph", str(out), "-p", "4", "--topology", "2d"])
        assert rc == 0
        assert "MTEPS" in capsys.readouterr().out

    def test_kcore(self, capsys):
        rc = main(["kcore", "--scale", "7", "-p", "4", "-k", "3"])
        assert rc == 0
        assert "3-core" in capsys.readouterr().out

    def test_triangles_exact(self, capsys):
        rc = main(["triangles", "--scale", "6", "-p", "2"])
        assert rc == 0
        assert "triangles:" in capsys.readouterr().out

    def test_triangles_approximate(self, capsys):
        rc = main(["triangles", "--scale", "7", "-p", "4", "--approximate",
                   "--samples", "500"])
        assert rc == 0
        assert "estimated triangles" in capsys.readouterr().out

    def test_machine_choice(self, capsys):
        rc = main(["bfs", "--scale", "7", "-p", "4", "--machine", "bgp"])
        assert rc == 0


class TestFaultFlags:
    def test_bfs_with_faults(self, capsys):
        rc = main(["bfs", "--scale", "7", "-p", "4",
                   "--faults", "seed=7,drop=0.02,dup=0.01,delay=0.03"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults seed=7" in out  # summary line reports the chaos

    def test_bfs_faults_match_fault_free(self, capsys):
        rc = main(["bfs", "--scale", "7", "-p", "4", "--reliable"])
        assert rc == 0
        clean = capsys.readouterr().out
        rc = main(["bfs", "--scale", "7", "-p", "4",
                   "--faults", "seed=3,drop=0.05"])
        assert rc == 0
        faulty = capsys.readouterr().out
        # reached/depth are bit-identical under faults; only the simulated
        # time (and therefore MTEPS) is allowed to differ
        def result_part(out):
            line = next(l for l in out.splitlines() if "reached" in l)
            return line.split(" MTEPS")[0].rsplit(",", 1)[0]

        assert result_part(clean) == result_part(faulty)

    def test_bfs_with_crash(self, capsys):
        rc = main(["bfs", "--scale", "7", "-p", "4",
                   "--faults", "seed=7,drop=0.02,crash=5:1",
                   "--checkpoint-interval", "4"])
        assert rc == 0
        assert "recoveries" in capsys.readouterr().out

    def test_kcore_with_faults(self, capsys):
        rc = main(["kcore", "--scale", "7", "-p", "4", "-k", "3",
                   "--faults", "seed=2,drop=0.03"])
        assert rc == 0
        assert "3-core" in capsys.readouterr().out

    def test_bad_fault_spec_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["bfs", "--scale", "7", "-p", "4", "--faults", "bogus=1"])

    def test_batch_flag_is_gone(self):
        """Native batch hooks are the default; no flag selects them."""
        with pytest.raises(SystemExit) as exc:
            main(["bfs", "--scale", "7", "-p", "4", "--batch"])
        assert exc.value.code == 2


class TestExperiment:
    def test_unknown_name(self, capsys):
        rc = main(["experiment", "nonexistent"])
        assert rc == 2
        assert "choose from" in capsys.readouterr().err

    def test_ambiguous_prefix(self, capsys):
        rc = main(["experiment", "fig"])
        assert rc == 2

    def test_runs_small_experiment(self, capsys):
        rc = main(["experiment", "fig01"])
        assert rc == 0
        assert "Figure 1" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for cmd in ("generate", "bfs", "kcore", "triangles", "experiment"):
            assert cmd in out


class TestGraph500Command:
    def test_runs_and_reports(self, capsys):
        rc = main(["graph500", "--scale", "7", "-p", "4", "--searches", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "harmonic mean" in out and "validated=True" in out

    def test_hypercube_topology(self, capsys):
        rc = main(["bfs", "--scale", "7", "-p", "4", "--topology", "hypercube"])
        assert rc == 0


class TestPageRankCommand:
    def test_runs(self, capsys):
        rc = main(["pagerank", "--scale", "7", "-p", "4", "--top", "3",
                   "--threshold", "1e-3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top vertices" in out

    def test_sssp_kernel_via_graph500(self, capsys):
        rc = main(["graph500", "--scale", "7", "-p", "4", "--searches", "2",
                   "--kernel", "sssp"])
        assert rc == 0
        assert "validated=True" in capsys.readouterr().out


class TestExperimentCsvExport:
    def test_csv_written(self, tmp_path, capsys):
        out = tmp_path / "fig01.csv"
        rc = main(["experiment", "fig01", "--csv", str(out)])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out


class TestProfile:
    def test_profile_bfs_smoke(self, capsys):
        rc = main(["profile", "bfs", "--scale", "7", "-p", "4", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hottest" in out  # profile table present
        assert "visits" in out   # traversal summary present

    def test_profile_cc_runs_the_batch_hooks(self, capsys):
        rc = main(["profile", "cc", "--scale", "7", "-p", "4", "--top", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hottest" in out
        assert "batch_queue.py" in out
        assert "object_adapter.py" not in out
