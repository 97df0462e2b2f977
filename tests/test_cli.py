import argparse
import hashlib
import json
import warnings

import numpy as np
import pytest

from pwlcycles import cli, core
from pwlcycles.cli import build_parser, main
from pwlcycles.core import ChangeOfVariables
from pwlcycles.examples import EXAMPLE1_M1_ROOTS, example_one, example_two
from pwlcycles.melnikov import analyze as melnikov_analyze


@pytest.fixture()
def ex1_path(tmp_path):
    p = tmp_path / "ex1.json"
    p.write_text(example_one().to_json())
    return str(p)


@pytest.fixture()
def ex2_path(tmp_path):
    p = tmp_path / "ex2.json"
    p.write_text(example_two(0.01).to_json())
    return str(p)


@pytest.fixture()
def saddle_path(tmp_path):
    """A saddle right zone, offset (-2, 0), beside a left-zone center: the
    center hypotheses fail."""
    p = tmp_path / "saddle.json"
    p.write_text(json.dumps({"order0": {
        "plus": {"matrix": [1.0, 0.0, 0.0, -1.0], "offset": [-2.0, 0.0]},
        "minus": {"matrix": [0.0, -1.0, 1.0, 0.0], "offset": [0.0, 0.0]}}}))
    return str(p)


@pytest.fixture()
def huge_path(tmp_path):
    """Example 1 with a right zone of size 1e200."""
    data = json.loads(example_one().to_json())
    data = {"order0": {"plus": {"matrix": [1e200, 0.0, 0.0, 1e200], "offset": [0.0, 0.1]},
                       "minus": data["order0"]["minus"]}}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(data))
    return str(p)


class TestAnalyze:
    def test_full_report(self, ex1_path, tmp_path):
        out = str(tmp_path / "out")
        assert main(["analyze", ex1_path, "-o", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["hypotheses"]["h3_global_center"] is True
        roots = [r["y0"] for r in report["melnikov"]["roots"]]
        np.testing.assert_allclose(roots, EXAMPLE1_M1_ROOTS, rtol=1e-8)
        assert report["infinity"]["stability"] == "Stable"
        assert report["melnikov"]["roots"][-1]["stability"] == "Unstable"

    def test_constrained_system_gets_sliding_block(self, ex2_path, tmp_path):
        out = str(tmp_path / "out2")
        assert main(["analyze", ex2_path, "-o", out]) == 0
        report = json.loads((tmp_path / "out2" / "report.json").read_text())
        assert report["sliding"]["verdict"] == "simultaneous"
        assert report["sliding"]["sliding"]["cycle"] == "SlidingTypeI"

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order0": [1, 2')
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "invalid JSON" in err and ":1:" in err

    def test_schema_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad2.json"
        bad.write_text('{"order0": {"plus": {"matrix": [1,2,3], "offset": [0,1]},'
                       ' "minus": {"matrix": [0,-1,1,0], "offset": [0,1]}}}')
        assert main(["analyze", str(bad)]) == 1
        assert "order0.plus.matrix" in capsys.readouterr().err

    def test_bad_grid_rejected(self, ex1_path):
        assert main(["analyze", ex1_path, "--grid", "10"]) == 1

    def test_zero_epsilon_gives_the_sliding_block_of_one_hundredth(self, ex2_path,
                                                                   tmp_path):
        # at eps = 0 the sliding check falls back to eps = 1e-2 in
        # detect_sliding_cycle, its one home
        blocks = []
        for eps in ("0", "0.01"):
            out = tmp_path / f"eps{eps}"
            assert main(["analyze", ex2_path, "--epsilon", eps, "-o", str(out)]) == 0
            blocks.append(json.loads((out / "report.json").read_text())["sliding"])
        assert blocks[0] == blocks[1]

    @pytest.mark.parametrize("key, value", [
        ("epsilon", True),
        ("matrix", ["0.1", True, 1, -0.1]),
        ("matrix", [0.1, True, 1, -0.1]),
        ("offset", [0.0, "1"]),
    ], ids=["epsilon-bool", "matrix-str", "matrix-bool", "offset-str"])
    def test_booleans_and_strings_are_not_numbers(self, tmp_path, capsys, key, value):
        data = example_one().to_dict()
        if key == "epsilon":
            data["epsilon"] = value
        else:
            data["order0"]["plus"][key] = value
        bad = tmp_path / "bad3.json"
        bad.write_text(json.dumps(data))
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        if key == "epsilon":
            assert "'epsilon' must be a number" in err
        else:
            assert "non-numeric entry in 'order0.plus'" in err

    @pytest.mark.parametrize("order0, key", [
        ("plus minus", "'order0' must be an object"),
        ({"plus": [1, 2], "minus": {"matrix": [0, -1, 1, 0], "offset": [0, 1]}},
         "'order0.plus' must be an object"),
    ], ids=["block-str", "entry-list"])
    def test_non_object_entries_exit_one(self, tmp_path, capsys, order0, key):
        bad = tmp_path / "bad4.json"
        bad.write_text(json.dumps({"order0": order0}))
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err

    def test_json_integers_are_numbers(self, tmp_path):
        data = example_two(0.01).to_dict()
        data["order0"]["minus"]["matrix"] = [0, -1, 1, 0]
        data["epsilon"] = 0
        p = tmp_path / "ints.json"
        p.write_text(json.dumps(data))
        assert main(["analyze", str(p), "-o", str(tmp_path / "ints")]) == 0
        report = json.loads((tmp_path / "ints" / "report.json").read_text())
        assert report["epsilon"] == 0.0 and report["hypotheses"]["h3_global_center"]

    def test_one_push_per_analysis(self, ex1_path, tmp_path, monkeypatch):
        # a deterministic cost guard: the reduction pushes only the order-0
        # pairs it reads, so the full system is pushed once, for the report
        calls = 0
        push = ChangeOfVariables.push_system

        def counting(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return push(self, *args, **kwargs)

        monkeypatch.setattr(ChangeOfVariables, "push_system", counting)
        assert main(["analyze", ex1_path, "-o", str(tmp_path / "out")]) == 0
        assert calls == 1

    def test_one_reduction_per_analysis(self, ex1_path, tmp_path, monkeypatch):
        # a deterministic cost guard: analyze reads the reduction that
        # check_hypotheses made instead of canonicalizing again
        calls = 0
        raw_change = core._raw_change

        def counting(sys):
            nonlocal calls
            calls += 1
            return raw_change(sys)

        monkeypatch.setattr(core, "_raw_change", counting)
        assert main(["analyze", ex1_path, "-o", str(tmp_path / "out")]) == 0
        assert calls == 1


class TestMelnikovCommand:
    def test_csv_and_roots(self, ex1_path, tmp_path):
        out = str(tmp_path / "m")
        assert main(["melnikov", ex1_path, "-o", out,
                     "--y0-range", "0.5", "5", "--grid", "1024"]) == 0
        csv = (tmp_path / "m" / "m1.csv").read_text().splitlines()
        assert csv[0] == "y0,m1"
        vals = np.array([float(line.split(",")[1]) for line in csv[1:]])
        sgn = np.sign(vals)
        changes = int(np.sum(sgn[:-1] * sgn[1:] < 0))
        assert changes == 3
        roots = json.loads((tmp_path / "m" / "roots.json").read_text())["roots"]
        assert len(roots) == 3

    @pytest.mark.parametrize("path", ["ex1_path", "ex2_path"])
    def test_roots_come_from_melnikov_analyze(self, path, tmp_path, monkeypatch, request):
        # the choice between M1 and its constrained variant lives in
        # melnikov.analyze: the command calls it once and writes its roots
        reports = []

        def recording(*args, **kwargs):
            reports.append(melnikov_analyze(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "melnikov_analyze", recording)
        assert main(["melnikov", request.getfixturevalue(path), "-o", str(tmp_path)]) == 0
        report, = reports
        roots = json.loads((tmp_path / "roots.json").read_text())["roots"]
        assert roots == [{"y0": r.y0, "flag": r.flag.value} for r in report.roots]
        assert roots

    def test_wide_range_keeps_the_three_roots(self, ex1_path, tmp_path):
        # up to 1e300 the arccos form squared y0 into overflow, warned five
        # times and reported a spurious root at 3.78e153
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["melnikov", ex1_path, "-o", str(tmp_path),
                         "--y0-range", "1", "1e300"]) == 0
        assert caught == []
        roots = json.loads((tmp_path / "roots.json").read_text())["roots"]
        assert [r["flag"] for r in roots] == ["Simple"] * 3
        np.testing.assert_allclose([r["y0"] for r in roots], EXAMPLE1_M1_ROOTS,
                                   rtol=0, atol=1e-9)

    def test_byte_identical_reruns(self, ex1_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["melnikov", ex1_path, "-o", out1, "--grid", "512"])
        main(["melnikov", ex1_path, "-o", out2, "--grid", "512"])
        assert (tmp_path / "a" / "m1.csv").read_bytes() == \
            (tmp_path / "b" / "m1.csv").read_bytes()
        assert (tmp_path / "a" / "roots.json").read_bytes() == \
            (tmp_path / "b" / "roots.json").read_bytes()


class TestSimulateCommand:
    def test_trajectory_csv_and_svg(self, ex1_path, tmp_path):
        out = str(tmp_path / "sim")
        assert main(["simulate", ex1_path, "--start", "0", "1.5",
                     "--t-max", "8", "--svg", "-o", out]) == 0
        csv = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,x,y,segment_kind"
        assert len(csv) > 10
        svg = (tmp_path / "sim" / "phase.svg").read_text()
        assert svg.startswith("<svg") and "<polyline" in svg

    def test_svg_deterministic(self, ex1_path, tmp_path):
        a, b = str(tmp_path / "s1"), str(tmp_path / "s2")
        for out in (a, b):
            main(["simulate", ex1_path, "--start", "0", "1.5",
                  "--t-max", "8", "--svg", "-o", out])
        assert (tmp_path / "s1" / "phase.svg").read_bytes() == \
            (tmp_path / "s2" / "phase.svg").read_bytes()

    @pytest.mark.parametrize("start, t_max, name", [
        (("0", "1"), "inf", "t_max"),
        (("0", "1"), "nan", "t_max"),
        (("nan", "1"), "8", "start"),
    ], ids=["t-max-inf", "t-max-nan", "start-nan"])
    def test_non_finite_input_exits_one(self, ex1_path, tmp_path, capsys, start, t_max,
                                        name):
        # an error line naming the bad input, no traceback and no CSV
        out = tmp_path / "bad"
        assert main(["simulate", ex1_path, "--start", *start, "--t-max", t_max,
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not (out / "trajectory.csv").exists()

    def test_huge_zone_entries_exit_cleanly(self, huge_path, tmp_path, capsys):
        # a right zone of size 1e200: its squared size and its determinant
        # overflow, which must end in a result or an error line, not a
        # traceback
        code = main(["simulate", huge_path, "--start", "1", "1", "--t-max", "5",
                     "-o", str(tmp_path / "huge")])
        captured = capsys.readouterr()
        assert code == 0 or (code == 1 and captured.err.startswith("error: "))
        assert "Traceback" not in captured.err

    @pytest.mark.filterwarnings("error")
    def test_huge_zone_overflow_is_reported_once(self, huge_path, tmp_path, capsys):
        # the state overflows to inf at t = 5: one error line, and no numpy
        # overflow warning from the event search or the zone flow before it
        code = main(["simulate", huge_path, "--start", "1", "1", "--t-max", "5",
                     "-o", str(tmp_path / "huge")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_hyperbolic_overflow_crosses(self, saddle_path, tmp_path):
        # a saddle right zone leaves x = 1 for x = 0 at t = ln 2; over a
        # budget of 1e4 its event bisection starts past exp(709.78), where
        # the coordinate is -inf, and finds the crossing a budget of 1e3 finds
        out = tmp_path / "saddle"
        assert main(["simulate", saddle_path, "--start", "1", "0.5", "--t-max", "10000",
                     "-o", str(out)]) == 0
        times = [row.split(",")[0] for row in
                 (out / "trajectory.csv").read_text().splitlines()[1:]]
        assert f"{0.6931471805599454:.17g}" in times


class TestSlidingCommand:
    def test_sweep(self, ex2_path, tmp_path):
        out = str(tmp_path / "sw")
        assert main(["sliding", ex2_path, "-o", out]) == 0
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,ordering,cycle"
        cycles = {line.split(",")[2] for line in lines[1:]}
        # the drift sign is fixed by the system, so the sweep crosses the
        # two sliding windows and the no-cycle region
        assert {"SlidingTypeI", "SlidingTypeII", "None"} <= cycles


class TestFileDigests:
    """The files ``analyze``, ``melnikov`` and ``sliding`` write for the two
    bundled examples at eps 1e-2, pinned by sha256.  Each command reads
    the example by the relative path ``ex1.json`` or ``ex2.json``, which is
    what the report's ``"input"`` holds.  ``m1.csv`` is pinned by
    ``TestM1Bits``."""

    SHA256 = {
        ("ex1", "report.json"): "7afb2e12426ad784b489200e4100120a1850f79bfe5ab12e5d8a085bac3331db",
        ("ex1", "roots.json"): "482edc88178f39368e3ec887b79eeab8e6566e50524bdee28939176ea38bc8ed",
        ("ex1", "sweep.csv"): "adc842c4cd0ac3240e55fd636ba155b11e42e16a386df0431f01fe78c7834388",
        ("ex2", "report.json"): "24eeb8dd5235e87264be7a76eb857bd21dc4abfd2d10285819fcd7ceb6fe182e",
        ("ex2", "roots.json"): "abafc768926950bea136e635a9b59416253c30713496eb34712abf8bc77efe25",
        ("ex2", "sweep.csv"): "72f118020abfe82bcc82ccc2b111b2712c732144380917f145d53e7cbf011e8d",
    }
    COMMANDS = {"report.json": "analyze", "roots.json": "melnikov", "sweep.csv": "sliding"}

    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_files_are_pinned(self, example, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        system = {"ex1": example_one, "ex2": example_two}[example](1e-2)
        (tmp_path / f"{example}.json").write_text(system.to_json())
        digests = {}
        for name, command in self.COMMANDS.items():
            assert main([command, f"{example}.json", "-o", command]) == 0
            digests[example, name] = hashlib.sha256(
                (tmp_path / command / name).read_bytes()).hexdigest()
        assert json.loads((tmp_path / "analyze" / "report.json").read_text())["input"] \
            == f"{example}.json"
        assert digests == {k: v for k, v in self.SHA256.items() if k[0] == example}


class TestArguments:
    def test_each_command_takes_only_the_flags_it_reads(self):
        # a change to a command's arguments must be deliberate: update this
        # table with it and say so in the change log
        sub, = (a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        dests = {name: sorted(a.dest for a in p._actions if a.dest != "help")
                 for name, p in sub.choices.items()}
        assert dests == {
            "analyze": ["epsilon", "grid", "input", "output_dir", "y0_range"],
            "melnikov": ["grid", "input", "output_dir", "y0_range"],
            "sliding": ["epsilon", "input", "output_dir"],
            "simulate": ["epsilon", "input", "output_dir", "start", "svg", "t_max"],
            "verify-examples": ["output_dir", "svg"],
        }
        assert sum(map(len, dests.values())) == 20

    @pytest.mark.parametrize("argv", [
        ["analyze", "ex1", "--svg"],
        ["melnikov", "ex1", "--epsilon", "0.01"],
        ["sliding", "ex2", "--grid", "1024"],
        ["simulate", "ex1", "--start", "0", "1.5", "--grid", "10"],
        ["verify-examples", "--y0-range", "1", "2"],
    ], ids=["analyze-svg", "melnikov-epsilon", "sliding-grid", "simulate-grid",
            "verify-y0-range"])
    def test_dropped_flag_is_a_usage_error(self, argv, ex1_path, ex2_path, capsys):
        argv = [{"ex1": ex1_path, "ex2": ex2_path}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "saddle"],
        ["sliding", "ex2"],
        ["simulate", "ex1", "--start", "0", "1.5"],
    ], ids=["analyze", "sliding", "simulate"])
    def test_bad_epsilon_exits_one(self, argv, eps, ex1_path, ex2_path, saddle_path,
                                   tmp_path, capsys):
        # checked where it is read: no silent 1e-2 and no NaN in report.json
        argv = [{"ex1": ex1_path, "ex2": ex2_path, "saddle": saddle_path}.get(a, a)
                for a in argv]
        out = tmp_path / "bad"
        assert main([*argv, "--epsilon", eps, "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: epsilon must be finite and >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "melnikov"])
    @pytest.mark.parametrize("lo, hi", [("0", "5"), ("1", "inf"), ("nan", "5"), ("5", "1"),
                                        ("1e-323", "1")])
    def test_bad_y0_range_exits_one(self, command, lo, hi, ex1_path, tmp_path, capsys):
        # a subnormal lo let m1_constrained's 2*y0*xi^3 round to 0 on the grid
        out = tmp_path / "bad"
        assert main([command, ex1_path, "--y0-range", lo, hi, "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: y0 range needs")
        assert not out.exists()
