import xml.etree.ElementTree as ET

import pytest

from rtss.plotting import PlotSpec, emit_plot

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
