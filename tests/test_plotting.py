import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from conftest import within
from rtss.plotting import PlotSpec, _ticks, emit_plot

CSV = """instanceId,algorithm,iterationBound,explorationRatio,evaluator,seed,outcome,gat,velocity,totalExpansions,proofExpansions,deadEndReexpansionRatio,meanTargetOpenRank,iterations
a,safe-rts,30,,astar,1,goal,100,4.0,3000,1500,0.01,1.5,100
a,safe-rts,100,,astar,1,goal,80,5.0,8000,4000,0.01,1.5,80
a,safe-rts,300,,astar,1,goal,60,6.5,18000,9000,0.01,1.5,60
a,rtfs,30,0.5,astar,1,goal,90,4.5,2700,1300,0.0,1.0,90
a,rtfs,100,0.5,astar,1,goal,70,5.5,7000,3500,0.0,1.0,70
a,rtfs,300,0.5,astar,1,goal,55,7.0,16000,8000,0.0,1.0,55
b,safe-rts,30,,astar,2,goal,105,3.8,3100,1500,0.01,1.6,105
b,safe-rts,100,,astar,2,goal,82,4.9,8100,4100,0.01,1.4,82
b,safe-rts,300,,astar,2,goal,63,6.3,18500,9200,0.02,1.7,63
b,rtfs,30,0.5,astar,2,goal,88,4.6,2650,1250,0.0,1.0,88
b,rtfs,100,0.5,astar,2,goal,71,5.4,7100,3600,0.0,1.0,71
b,rtfs,300,0.5,astar,2,goal,57,6.9,16500,8300,0.0,1.0,57
"""


def test_emits_wellformed_svg_with_one_series_per_algorithm(tmp_path):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(CSV)
    out = tmp_path / "chart.svg"
    text = emit_plot(str(csv_path), PlotSpec(x="iterationBound", y="velocity",
                                             series="algorithm", out=str(out),
                                             title="velocity by bound"))
    assert out.exists()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2
    polygons = [e for e in root.iter() if e.tag.endswith("polygon")]
    assert len(polygons) == 2  # one confidence band per series
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert "safe-rts" in texts and "rtfs" in texts


def test_points_aggregate_to_means(tmp_path):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(CSV)
    from rtss.plotting import _aggregate
    import csv as csvmod
    rows = list(csvmod.DictReader(CSV.splitlines()))
    series = _aggregate(rows, PlotSpec(x="iterationBound", y="velocity",
                                       series="algorithm", out=""))
    srts = dict((x, m) for x, m, _lo, _hi in series["safe-rts"])
    assert srts[30] == pytest.approx((4.0 + 3.8) / 2)
    assert srts[300] == pytest.approx((6.5 + 6.3) / 2)


def test_missing_numeric_columns_are_skipped(tmp_path):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(CSV.replace(",1.5,", ",,", 1))
    out = tmp_path / "c.svg"
    emit_plot(str(csv_path), PlotSpec(x="iterationBound", y="meanTargetOpenRank",
                                      series="algorithm", out=str(out)))
    assert out.exists()


def test_no_data_raises(tmp_path):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(CSV)
    with pytest.raises(ValueError):
        emit_plot(str(csv_path), PlotSpec(x="nope", y="velocity",
                                          series="algorithm", out=""))


def test_logx_skips_points_whose_x_is_not_positive(tmp_path, capsys):
    from rtss.cli import main
    csv_path = tmp_path / "r.csv"
    # an offline reference row carries iterationBound 0, as in airspace-velocity
    csv_path.write_text(CSV + "a,astar-offline,0,,astar,1,goal,50,8.0,900,0,0.0,,1\n")
    out = tmp_path / "c.svg"
    code = main(["plot", "--csv", str(csv_path), "--x", "iterationBound",
                 "--y", "velocity", "--series", "algorithm", "--out", str(out),
                 "--logx"])
    assert code == 0, capsys.readouterr().err
    root = ET.fromstring(out.read_text())
    assert len([e for e in root.iter() if e.tag.endswith("circle")]) == 6
    assert len([e for e in root.iter() if e.tag.endswith("polyline")]) == 2


def test_logx_without_positive_x_exits_two_naming_the_column(tmp_path, capsys):
    from rtss.cli import main
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(CSV.splitlines()[0]
                        + "\na,astar-offline,0,,astar,1,goal,50,8.0,900,0,0.0,,1\n")
    code = main(["plot", "--csv", str(csv_path), "--x", "iterationBound",
                 "--y", "velocity", "--series", "algorithm",
                 "--out", str(tmp_path / "c.svg"), "--logx"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'iterationBound'" in err and "positive" in err
    assert not (tmp_path / "c.svg").exists()


def test_logx_skips_an_x_tick_that_rounds_to_zero(tmp_path, capsys):
    from rtss.cli import main
    # more than eight x values get linear ticks 2e-12 apart, each rounded to
    # ten decimals, so every tick reads 0.0 and has no place on a log axis
    rows = [f"a,safe-rts,30,,astar,1,goal,{k},{k}e-12,1,0,0.0,1.0,1" for k in range(1, 11)]
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("\n".join([CSV.splitlines()[0], *rows]) + "\n")
    out = tmp_path / "c.svg"
    code = main(["plot", "--csv", str(csv_path), "--x", "velocity", "--y", "gat",
                 "--series", "algorithm", "--out", str(out), "--logx"])
    assert code == 0, capsys.readouterr().err
    root = ET.fromstring(out.read_text())
    assert len([e for e in root.iter() if e.tag.endswith("circle")]) == 10


@pytest.mark.parametrize("column", ["velocity", "iterationBound"])
def test_infinite_cells_are_skipped(tmp_path, capsys, column):
    from rtss.cli import main
    csv_path = tmp_path / "r.csv"
    row = "a,rtfs,inf,0.5,astar,1,goal,50,8.0,900,0,0.0,,1" if column == "iterationBound" \
        else "a,rtfs,1000,0.5,astar,1,goal,50,inf,900,0,0.0,,1"
    csv_path.write_text(CSV + row + "\n")
    out = tmp_path / "c.svg"
    code = main(["plot", "--csv", str(csv_path), "--x", "iterationBound",
                 "--y", "velocity", "--series", "algorithm", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    text = out.read_text()
    assert "nan" not in text and "inf" not in text
    root = ET.fromstring(text)
    assert len([e for e in root.iter() if e.tag.endswith("circle")]) == 6


def test_only_infinite_cells_exit_two(tmp_path, capsys):
    from rtss.cli import main
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(CSV.splitlines()[0]
                        + "\na,rtfs,30,0.5,astar,1,goal,50,inf,900,0,0.0,,1"
                        + "\na,rtfs,-inf,0.5,astar,1,goal,50,4.0,900,0,0.0,,1\n")
    code = main(["plot", "--csv", str(csv_path), "--x", "iterationBound",
                 "--y", "velocity", "--series", "algorithm",
                 "--out", str(tmp_path / "c.svg")])
    assert code == 2
    assert "no numeric data" in capsys.readouterr().err
    assert not (tmp_path / "c.svg").exists()


def _plot_args(tmp_path, points):
    """Write (series, x, y) points to a CSV; the plot arguments that chart it."""
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("a,x,y\n" + "".join(f"{a},{x!r},{y!r}\n" for a, x, y in points))
    return ["plot", "--csv", str(csv_path), "--x", "x", "--y", "y", "--series", "a",
            "--out", str(tmp_path / "d.svg")]


def _circles(tmp_path):
    root = ET.fromstring((tmp_path / "d.svg").read_text())
    return [(float(e.get("cx")), float(e.get("cy")))
            for e in root.iter() if e.tag.endswith("circle")]


def _render(tmp_path, points, *flags):
    """Plot points through the CLI's code in this process; (exit code, the
    chart's circles as (cx, cy))."""
    from rtss.cli import main
    code = main([*_plot_args(tmp_path, points), *flags])
    return code, [] if code else _circles(tmp_path)


def _inside_the_axes(circles):
    # the plot area: x from 70 to 560, y from 50 to 405
    return all(70 <= cx <= 560 and 50 <= cy <= 405 for cx, cy in circles)


@pytest.mark.parametrize("points, flags", [
    ([("p", 30.0, 1.0), ("p", 30.0, 2.0), ("q", 30.0, 4.0)], ()),
    ([("p", 30.0, 1.0), ("q", 30.0, 2.0)], ("--logx",)),
    ([("p", 1e20, 1.0), ("p", 1e20, 2.0)], ()),
    ([("p", 0.0, 6e14), ("p", 1.0, 6e14), ("q", 2.0, 6e14)], ()),
], ids=["one-x-value", "one-x-value-on-a-log-axis", "one-x-value-at-1e20",
        "constant-y-at-6e14"])
def test_a_constant_column_renders_every_point_inside_the_axes(tmp_path, capsys, points,
                                                               flags):
    code, circles = _render(tmp_path, points, *flags)
    assert code == 0, capsys.readouterr().err
    assert len(circles) == len({(a, x) for a, x, _y in points})
    assert _inside_the_axes(circles)
    if len({x for _a, x, _y in points}) == 1:
        assert {cx for cx, _cy in circles} == {315.0}     # mid-axis


@pytest.mark.parametrize("count, labels", [
    (8, ["0", "5", "11", "12", "20", "21", "29", "30"]),
    (9, ["0", "5", "10", "15", "20", "25", "30"]),
])
def test_up_to_eight_x_values_label_themselves(tmp_path, capsys, count, labels):
    # a linear axis keeps its tick at zero
    xs = [0, 5, 11, 12, 20, 21, 29, 30, 1][:count]
    code, _circles = _render(tmp_path, [("p", float(x), 1.0) for x in xs])
    assert code == 0, capsys.readouterr().err
    root = ET.fromstring((tmp_path / "d.svg").read_text())
    assert [e.text for e in root.iter() if e.tag.endswith("text")
            and e.get("text-anchor") == "middle" and e.get("font-size") == "11"] == labels


@pytest.mark.parametrize("ys, labels, heights", [
    ([5.0, 5.0], ["4.96", "4.98", "5", "5.02", "5.04"], [227.5, 227.5]),
    ([0.0, 10.0], ["0", "2.5", "5", "7.5", "10"], [388.9, 66.1]),
], ids=["constant", "range"])
def test_the_y_axis_pads_a_range_by_a_twentieth_and_a_constant_by_005(
        tmp_path, capsys, ys, labels, heights):
    code, circles = _render(tmp_path, [("p", float(x), y) for x, y in enumerate(ys)])
    assert code == 0, capsys.readouterr().err
    root = ET.fromstring((tmp_path / "d.svg").read_text())
    assert [e.text for e in root.iter() if e.tag.endswith("text")
            and e.get("text-anchor") == "end"] == labels
    assert [cy for _cx, cy in circles] == heights


def test_a_band_shades_only_a_series_of_several_points_with_a_spread(tmp_path, capsys):
    points = [("band", 1.0, 1.0), ("band", 1.0, 2.0), ("band", 2.0, 3.0),
              ("no-spread", 1.0, 1.0), ("no-spread", 2.0, 2.0),
              ("one-point", 1.0, 1.0), ("one-point", 1.0, 3.0)]
    code, _circles = _render(tmp_path, points)
    assert code == 0, capsys.readouterr().err
    root = ET.fromstring((tmp_path / "d.svg").read_text())
    polygons = [e for e in root.iter() if e.tag.endswith("polygon")]
    assert [p.get("fill") for p in polygons] == ["#1f77b4"]     # the first series'


def test_ticks_are_none_when_a_step_cannot_advance_a_float():
    # a step of 0.025 near 5e14, where floats lie 0.0625 apart: t += step
    # leaves t where it was
    assert within(10, _ticks, 5e14 - 0.0625, 5e14 + 0.0625) == []
    assert within(10, _ticks, 0.0, 1.0) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def test_a_tick_up_to_a_billionth_of_a_step_past_the_range_still_counts():
    # 5 - 1e-9 plus a billionth of the step of 1 is exactly 5.0
    assert _ticks(0.0, 5 - 1e-9) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@pytest.mark.parametrize("points", [
    [("p", 0.0, 5e14), ("p", 1.0, 5e14)],
    [("p", 0.0, 1e9), ("p", 1.0, 1e9 + 1e-7)],
    [("p", 0.0, 6e14), ("p", 1.0, 6e14)],
    [("p", 1e20, 1.0), ("p", 1e20, 2.0)],
], ids=["y-constant-at-5e14", "y-one-float-spacing-apart-at-1e9", "y-constant-at-6e14",
        "x-constant-at-1e20"])
def test_rtss_plot_renders_a_degenerate_axis_within_a_time_limit(tmp_path, points):
    # a subprocess under a time limit, since a tick loop whose step is below
    # the float spacing never ends, and the padding or the widening of a
    # constant column can vanish in rounding and leave a range of zero
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "rtss.cli", *_plot_args(tmp_path, points)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    circles = _circles(tmp_path)
    assert len(circles) == len({(a, x) for a, x, _y in points})
    assert _inside_the_axes(circles)
