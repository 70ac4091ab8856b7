import xml.etree.ElementTree as ET

import pytest

from kinterp.svg import AxesSpec, Series, SvgError, emit_svg


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_single_point_series_is_valid_svg(tmp_path):
    path = tmp_path / "one.svg"
    emit_svg([Series("s", (1.0,), (2.0,))], AxesSpec(), path)
    root = ET.fromstring(read(path))
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("circle") for child in root.iter())


def test_two_series_legend_entries(tmp_path):
    path = tmp_path / "two.svg"
    emit_svg([Series("matern trace", (1, 2, 3), (1.0, 1.2, 1.1)),
              Series("gaussian trace", (1, 2, 3), (1.0, 3.0, 9.0))],
             AxesSpec(xlabel="n", ylabel="value"), path)
    root = ET.fromstring(read(path))
    legend_texts = [el.text for el in root.iter()
                    if el.tag.endswith("text") and el.get("class") == "legend"]
    assert legend_texts == ["matern trace", "gaussian trace"]


def test_log_scale_rejects_nonpositive_with_index(tmp_path):
    with pytest.raises(SvgError, match="point 2"):
        emit_svg([Series("bad", (1.0, 2.0, 3.0), (1.0, 2.0, -0.5))],
                 AxesSpec(yscale="log"), tmp_path / "bad.svg")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("index", [0, 2])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("scale", ["linear", "log"])
def test_non_finite_values_rejected_with_series_and_index(tmp_path, bad, index, axis, scale):
    # a nan first or later, or an inf, on either axis under either scale:
    # an SvgError naming the series and the point, and no file
    values = [1.0, 2.0, 3.0]
    values[index] = bad
    xs, ys = (values, [1.0, 2.0, 4.0]) if axis == "x" else ([1.0, 2.0, 4.0], values)
    path = tmp_path / "bad.svg"
    with pytest.raises(SvgError, match=f"^series 'bad' point {index}: "
                                       f"non-finite value {bad!r} on the {axis}-axis$"):
        emit_svg([Series("ok", (1.0,), (1.0,)), Series("bad", tuple(xs), tuple(ys))],
                 AxesSpec(xscale=scale, yscale=scale), path)
    assert not path.exists()


def test_empty_series_rejected(tmp_path):
    with pytest.raises(SvgError):
        emit_svg([], AxesSpec(), tmp_path / "x.svg")


def test_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    series = [Series("s", (1.0, 10.0, 100.0), (0.5, 0.25, 0.125))]
    axes = AxesSpec(xscale="log", yscale="log", title="t")
    emit_svg(series, axes, a)
    emit_svg(series, axes, b)
    assert read(a) == read(b)


def test_log_axes_render_decade_ticks(tmp_path):
    path = tmp_path / "log.svg"
    emit_svg([Series("s", (1.0, 1000.0), (1.0, 2.0))], AxesSpec(xscale="log"), path)
    text = read(path).decode()
    for tick in ("1", "10", "100", "1000"):
        assert f">{tick}</text>" in text


def test_bad_scale_rejected():
    with pytest.raises(SvgError):
        AxesSpec(xscale="cubic")
