import random

import pytest

from opencob import gluing, harness
from opencob.cli import main
from opencob.surface import format_surface, open_pants, surface_fgp


@pytest.fixture
def fgp23_file(tmp_path):
    path = tmp_path / "f23.surf"
    path.write_text(format_surface(surface_fgp(2, 3)))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    text = ("component R genus 0\n"
            "circle R mixed a.out - a.in -\n"
            "incoming a.in\noutgoing a.out\n")
    path = tmp_path / "id.surf"
    path.write_text(text)
    return str(path)


class TestCompute:
    def test_h(self, fgp23_file, capsys):
        assert main(["compute", fgp23_file, "h"]) == 0
        assert capsys.readouterr().out.strip() == "h = 6"

    def test_superdim_identity(self, identity_file, capsys):
        assert main(["compute", identity_file, "superdim", "--preset", "tensor"]) == 0
        assert capsys.readouterr().out.strip() == "superdim = 1 - t^-1"

    def test_superdim_off_grid_exit_2(self, tmp_path, capsys):
        # degrees -1/3 and 2/3 have no superdimension in powers of t^(1/2)
        path = tmp_path / "f02.surf"
        path.write_text(format_surface(surface_fgp(0, 2)))
        assert main(["compute", str(path), "superdim", "--shift", "1/3,0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "half-integer grid" in captured.err

    def test_delta_half_f12(self, tmp_path, capsys):
        path = tmp_path / "f12.surf"
        path.write_text(format_surface(surface_fgp(1, 2)))
        assert main(["compute", str(path), "delta", "--preset", "half"]) == 0
        assert capsys.readouterr().out.strip() == "delta = -2"

    def test_shift_flag(self, fgp23_file, capsys):
        assert main(["compute", fgp23_file, "delta", "--shift", "1/2,1/2,0,-1/2",
                     "--parity", "half"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "delta = -4"  # -h/2 - p/2 + 1/2 = -3 - 3/2 + 1/2

    def test_actions(self, identity_file, capsys):
        assert main(["compute", identity_file, "actions"]) == 0
        out = capsys.readouterr().out
        assert "E_a.out (left):" in out and "E_a.in (right):" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.surf"
        path.write_text("component A genus x\n")
        assert main(["compute", str(path), "h"]) == 2

    def test_parity_undefined_exit_2(self, tmp_path):
        path = tmp_path / "dpm.surf"
        path.write_text("component A genus 0\ncircle A mixed a -\noutgoing a\n")
        assert main(["compute", str(path), "pi", "--preset", "half"]) == 2

    @pytest.mark.parametrize("flag,value", [("--shift", "1/0,0,0,0"),
                                            ("--shift", "x,0,0,0"),
                                            ("--parity", "2,0,0,0")])
    def test_bad_grading_flag_exit_2(self, fgp23_file, capsys, flag, value):
        assert main(["compute", fgp23_file, "delta", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestGlueCompose:
    def test_glue(self, tmp_path, capsys):
        path = tmp_path / "rect.surf"
        path.write_text("component A genus 0\ncircle A mixed i1 - i2 -\n"
                        "outgoing i1 i2\n")
        assert main(["glue", str(path), "i1", "i2"]) == 0
        out = capsys.readouterr().out
        assert "case: 2-1b" in out
        assert "created S- circles: 2" in out
        assert "verified: yes" in out

    def test_compose(self, tmp_path, capsys):
        inner = tmp_path / "inner.surf"
        inner.write_text("component A genus 0\ncircle A mixed a.out - a.in -\n"
                         "incoming a.in\noutgoing a.out\n")
        outer = tmp_path / "outer.surf"
        outer.write_text(format_surface(open_pants(1)))
        assert main(["compose", str(outer), str(inner)]) == 0
        out = capsys.readouterr().out
        assert "verified: yes" in out
        assert "1 - t^-1" in out

    def test_compose_superdim_off_grid_exit_2(self, tmp_path, capsys):
        # h = 0 on both sides; the composite sits in degree -2/3
        fp, f = harness.random_composable_pair(random.Random(43),
                                               harness.Bounds(max_h=3))
        files = []
        for name, s in (("outer", fp), ("inner", f)):
            path = tmp_path / f"{name}.surf"
            path.write_text(format_surface(s))
            files.append(str(path))
        assert main(["compose", *files, "--shift", "1/3,0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "-2/3" in captured.err
        assert main(["compose", *files, "--shift", "1/2,0,0,0"]) == 0

    def test_glue_matrix_flag(self, tmp_path, capsys):
        path = tmp_path / "rect.surf"
        path.write_text("component A genus 0\ncircle A mixed i1 - i2 -\n"
                        "outgoing i1 i2\n")
        assert main(["glue", str(path), "i1", "i2", "--matrix"]) == 0
        assert "iso matrix" in capsys.readouterr().out


class TestVerify:
    def test_constraints_suite(self, capsys):
        assert main(["verify", "constraints", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "suite: constraints" in out and "failures: 0" in out

    def test_lemma_suite(self, capsys):
        assert main(["verify", "lemma-cases"]) == 0
        assert "failures: 0" in capsys.readouterr().out

    def test_negative_trials_exit_2(self, capsys):
        assert main(["verify", "theorem", "--trials", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem", "--trials", "2", "--max-h", "-1"],
        ["verify", "theorem", "--trials", "2", "--max-h", "0"],
        ["verify", "theorem", "--trials", "2", "--max-h", "1"],
        ["verify", "homology-oracle", "--max-h", "-1"],
        ["verify", "constraints", "--max-h", "-1"],
    ])
    def test_bad_max_h_exit_2(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("no suite may run")
        monkeypatch.setitem(harness.SUITES, argv[1], refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_max_h_zero_homology_oracle(self, capsys):
        assert main(["verify", "homology-oracle", "--trials", "5", "--max-h", "0"]) == 0
        assert "failures: 0" in capsys.readouterr().out

    def test_pants_trials_budget_exit_2(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("pants_iso must not run")
        monkeypatch.setattr(gluing, "pants_iso", refuse)
        assert main(["verify", "pants", "--trials", "15"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("suite", ["lemma-cases", "dimensions"])
    def test_fixed_instance_suites_refuse_trials(self, capsys, monkeypatch, suite):
        def refuse(*args, **kwargs):
            raise AssertionError("no suite may run")
        monkeypatch.setitem(harness.SUITES, suite, refuse)
        assert main(["verify", suite, "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "fixed list of instances" in captured.err

    def test_theorem_smoke(self, capsys):
        assert main(["verify", "theorem", "--seed", "7", "--trials", "3"]) == 0

    def test_deterministic_output(self, capsys):
        main(["verify", "dimensions", "--seed", "3"])
        out1 = capsys.readouterr().out
        main(["verify", "dimensions", "--seed", "3"])
        out2 = capsys.readouterr().out
        assert out1 == out2
