"""CSV and SVG emission for aggregate learning curves."""

import hashlib
import itertools
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsim import ExperimentConfig, RoundSeries, run_experiment, write_csv, write_svg

import reference

SVG_NS = "{http://www.w3.org/2000/svg}"


def two_series():
    causal = RoundSeries("causal", (1.0, 0.5), (1.0, 0.75))
    random_ = RoundSeries("random", (0.0, 1.0), (0.0, 0.5))
    return (causal, random_)


def test_csv_layout_is_exact(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(two_series(), str(path))
    assert path.read_bytes() == (
        b"round,agent,mean_reward,cum_mean_reward\n"
        b"1,causal,1.0000000000,1.0000000000\n"
        b"1,random,0.0000000000,0.0000000000\n"
        b"2,causal,0.5000000000,0.7500000000\n"
        b"2,random,1.0000000000,0.5000000000\n"
    )


def test_csv_is_round_major_in_series_order(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(two_series()[::-1], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "round,agent,mean_reward,cum_mean_reward"
    assert [ln.split(",")[1] for ln in lines[1:]] == ["random", "causal", "random", "causal"]


def test_csv_rewrite_is_byte_identical(medic_env, tmp_path):
    cfg = ExperimentConfig(rounds=25, replications=6, seed=3)
    result = run_experiment(medic_env, cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(result.series, str(a))
    write_csv(run_experiment(medic_env, cfg).series, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_csv_uses_lf_line_endings_only(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(two_series(), str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_empty_input_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="empty-series"):
        write_csv((), str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="empty-series"):
        write_csv((RoundSeries("causal", (), ()),), str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="empty-series"):
        write_svg((), str(tmp_path / "x.svg"))


def test_mismatched_series_lengths_are_rejected(tmp_path):
    short = RoundSeries("random", (0.5,), (0.5,))
    with pytest.raises(ValueError, match="length-mismatch"):
        write_csv((two_series()[0], short), str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="length-mismatch"):
        write_svg((two_series()[0], short), str(tmp_path / "x.svg"))


def test_svg_is_well_formed_with_one_polyline_per_series(tmp_path):
    path = tmp_path / "curves.svg"
    write_svg(two_series(), str(path))
    root = ET.parse(str(path)).getroot()
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    for p in polylines:
        pts = p.get("points").split()
        assert len(pts) == 2  # one x,y pair per round
        assert p.get("stroke")


def test_svg_carries_axis_titles_and_legend(tmp_path):
    path = tmp_path / "curves.svg"
    write_svg(two_series(), str(path))
    texts = [t.text for t in ET.parse(str(path)).getroot().iter(f"{SVG_NS}text")]
    assert "round" in texts
    assert "mean reward" in texts
    assert "causal" in texts
    assert "random" in texts


def test_svg_declares_itself(tmp_path):
    path = tmp_path / "curves.svg"
    write_svg(two_series(), str(path))
    head = path.read_bytes()[:60]
    assert head.startswith(b"<?xml")


def test_svg_handles_flat_series(tmp_path):
    flat = (RoundSeries("causal", (0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),)
    path = tmp_path / "flat.svg"
    write_svg(flat, str(path))
    root = ET.parse(str(path)).getroot()
    assert len(root.findall(f"{SVG_NS}polyline")) == 1


def test_svg_handles_single_round(tmp_path):
    one = (RoundSeries("causal", (0.9,), (0.9,)),)
    path = tmp_path / "one.svg"
    write_svg(one, str(path))
    root = ET.parse(str(path)).getroot()
    pts = root.find(f"{SVG_NS}polyline").get("points").split()
    assert len(pts) == 1


@pytest.mark.parametrize("values", [(1e305, 1e305), (-1e305, -1e305), (-1e305, 1e305), (0.0, 1e305), (1e12, 1e12)])
def test_svg_tick_labels_fit_the_margin_at_extreme_values(values, tmp_path):
    # Right-anchored at the 70-px left margin, a y-tick label of a value
    # near 1e305 in fixed point would run to over 300 characters.
    path = tmp_path / "huge.svg"
    cumulative = tuple(total / (t + 1) for t, total in enumerate(itertools.accumulate(values)))
    write_svg((RoundSeries("causal", values, cumulative),), str(path))
    ticks = [t.text for t in ET.parse(str(path)).getroot().iter(f"{SVG_NS}text") if t.get("text-anchor") == "end"]
    assert len(ticks) == 5
    assert all(len(t) <= 20 for t in ticks), ticks
    assert len(set(ticks)) == 5, ticks
    assert float(ticks[0]) <= min(values) and float(ticks[-1]) >= max(values)


def test_svg_from_a_real_run_parses(medic_env, tmp_path):
    result = run_experiment(medic_env, ExperimentConfig(rounds=30, replications=4, seed=11))
    path = tmp_path / "run.svg"
    write_svg(result.series, str(path))
    root = ET.parse(str(path)).getroot()
    assert len(root.findall(f"{SVG_NS}polyline")) == len(result.series)


def _seven_series():
    return tuple(
        RoundSeries(f"agent{i}", tuple((i + t) % 5 / 4.0 for t in range(6)), tuple(i / 6.0 for _ in range(6)))
        for i in range(7)
    )


# Each case reaches a branch that the pinned medic run in test_cli does
# not: a flat range, the one-round x scale, a wrapped palette, escaping,
# an empty label's self-closed tag, a lone surrogate's character reference.
@pytest.mark.parametrize(
    "series, digest",
    [
        pytest.param(
            (RoundSeries("causal", (0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),),
            "0c17e0a25f4ed2a891fb5f4964386f51f3c09c9a7b187de0d6761448f057c00e",
            id="flat",
        ),
        pytest.param(
            (RoundSeries("causal", (0.9,), (0.9,)),),
            "66b628bb0e8cf8b4cdfa859925a901daa63de321a4277fa1af70a1bd9129771f",
            id="single-round",
        ),
        pytest.param(
            _seven_series(),
            "20b9b485b793d87d8bdc1e5487b0f85a4fe35689d219fdcc6cdc4ec74d6bc3c0",
            id="palette-wraps",
        ),
        pytest.param(
            (RoundSeries('a&b <c> "d"', (0.25, 0.75), (0.25, 0.5)),),
            "6549b7825eb41d05170226f668060125e23c86316416ae733a5ec87a124bf9d4",
            id="escaped-label",
        ),
        pytest.param(
            (RoundSeries("", (0.25, 0.75), (0.25, 0.5)),),
            "3084dad71673cf713faddec68ffe055628b77f458de7f55dff0ad0a4da8b86c3",
            id="empty-label",
        ),
        pytest.param(
            (RoundSeries("\u00e9\ud800", (0.25, 0.75), (0.25, 0.5)),),
            "9504276ad40f8ffda015898412d3682141e977334fee242aed4d402b8322d869",
            id="lone-surrogate",
        ),
    ],
)
def test_svg_bytes_are_pinned(series, digest, tmp_path):
    path = tmp_path / "pinned.svg"
    write_svg(series, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("mark", [",", "\r", "\n"])
def test_csv_refuses_a_label_it_cannot_carry(mark, tmp_path):
    # The layout has no quoting: such a label would add fields or rows.
    series = (two_series()[0], RoundSeries(f"q{mark}x", (0.0, 1.0), (0.0, 0.5)))
    with pytest.raises(ValueError, match="csv-label"):
        write_csv(series, str(tmp_path / "x.csv"))
    assert not (tmp_path / "x.csv").exists()
    write_svg(series, str(tmp_path / "x.svg"))
    assert "q" in [t.text[0] for t in ET.parse(str(tmp_path / "x.svg")).getroot().iter(f"{SVG_NS}text")]


def test_a_csv_label_it_cannot_encode_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"old")
    series = (two_series()[0], RoundSeries("a\ud800", (0.0, 1.0), (0.0, 0.5)))
    with pytest.raises(UnicodeEncodeError):
        write_csv(series, str(path))
    assert path.read_bytes() == b"old"


_LABELS = st.one_of(
    st.sampled_from(["", "causal", 'a&b <c> "d"', "\x00\x01\x1f\x7f\t", "\U0001f600", "\u00e9\ud800", "\udfff"]),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _curves(draw):
    """1-8 series over 1-300 rounds. The values come from a small pool, as
    means of few replications do; a flat chart has one value."""
    rounds = draw(st.integers(1, 300))
    pool = draw(st.lists(_VALUES, min_size=1, max_size=1 if draw(st.booleans()) else 6))
    rnd = draw(st.randoms(use_true_random=False))
    series = []
    for _ in range(draw(st.integers(1, 8))):
        values = tuple(rnd.choice(pool) for _ in range(rounds))
        cumulative = tuple(total / (t + 1) for t, total in enumerate(itertools.accumulate(values)))
        series.append(RoundSeries(draw(_LABELS), values, cumulative))
    return tuple(series)


def _written(writer, series, path):
    """The bytes ``writer`` leaves at ``path``, or the type of its error."""
    try:
        writer(series, str(path))
    # UnicodeEncodeError: a lone surrogate in a CSV label.
    except ValueError as e:
        return type(e)
    return path.read_bytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(series=_curves())
def test_writers_match_the_element_tree_references(series, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("writers")
    assert _written(write_svg, series, tmp / "a.svg") == _written(reference.write_svg, series, tmp / "b.svg")
    if not any(c in s.label for s in series for c in ",\r\n"):
        assert _written(write_csv, series, tmp / "a.csv") == _written(reference.write_csv, series, tmp / "b.csv")
