"""Rendering: triangle geometry in SVG, bar rows in ASCII, trace overlays."""

from fractions import Fraction

import pytest

from trisched import Schedule, simulate
from trisched.render import MAX_COLUMNS, render_ascii, render_svg

STAIRCASE = Schedule(((6, 0), (4, 4), (3, 7), (5, 10)))


class TestSvg:
    def test_one_triangle_per_job(self):
        svg = render_svg(STAIRCASE)
        assert svg.count("<polygon") == 4
        assert svg.count("<line") == 1
        assert 'viewBox="0 0 15' in svg

    def test_triangle_vertices(self):
        svg = render_svg(Schedule(((6, 0),)))
        # right triangle: base (0,6)-(6,6), vertical edge up to (0,0)
        assert 'points="0,6 0,0 6,6"' in svg

    def test_scale_stretches_coordinates(self):
        svg = render_svg(Schedule(((6, 0),)), scale=2)
        assert 'points="0,12 0,0 12,12"' in svg

    def test_fractional_scale(self):
        svg = render_svg(Schedule(((6, 0),)), scale=Fraction(1, 2))
        assert 'points="0,3 0,0 3,3"' in svg

    def test_trace_adds_run_rectangles(self):
        trace = simulate(STAIRCASE, (5, 1, 2, 4))
        svg = render_svg(STAIRCASE, trace=trace)
        assert svg.count('<rect class="run"') == 3

    def test_infeasible_rejected_with_pairs(self):
        with pytest.raises(ValueError) as info:
            render_svg(Schedule(((6, 0), (4, 3))))
        assert "jobs 0 and 1" in str(info.value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_svg(Schedule(()))

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            render_svg(STAIRCASE, scale=0)

    @pytest.mark.parametrize("scale", [0.1, True])
    def test_float_and_bool_scales_rejected(self, scale):
        with pytest.raises(TypeError):
            render_svg(STAIRCASE, scale=scale)


class TestAscii:
    def test_rows_in_start_order(self):
        art = render_ascii(STAIRCASE)
        assert art == (
            "######  p=6 s=0\n"
            "    ####  p=4 s=4\n"
            "       ###  p=3 s=7\n"
            "          #####  p=5 s=10\n"
            "---------------\n"
        )

    def test_trace_rows(self):
        trace = simulate(STAIRCASE, (5, 1, 2, 4))
        art = render_ascii(STAIRCASE, trace=trace)
        assert "=====  run [0, 5)\n" in art
        assert "    x  canceled by job 0\n" in art
        assert "       ==  run [7, 9)\n" in art
        assert "          ====  run [10, 14)\n" in art

    def test_scale_shrinks_bars(self):
        art = render_ascii(Schedule(((8, 0), (4, 8))), scale=Fraction(1, 4))
        assert art.splitlines()[0].startswith("##")

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            render_ascii(Schedule(((4, 0), (4, 1))))

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="^scale must be positive$"):
            render_ascii(STAIRCASE, scale=0)

    @pytest.mark.parametrize("scale", [0.1, True])
    def test_float_and_bool_scales_rejected(self, scale):
        with pytest.raises(TypeError):
            render_ascii(STAIRCASE, scale=scale)

    def test_time_axis_up_to_the_column_cap(self):
        fits = Schedule(((4, 0), (4, MAX_COLUMNS - 4)))
        assert render_ascii(fits).splitlines()[-1] == "-" * MAX_COLUMNS
        assert len(render_ascii(fits, scale=Fraction(1, 2)).splitlines()[-1]) == MAX_COLUMNS // 2
        with pytest.raises(ValueError, match=f"{MAX_COLUMNS + 1} columns wide.*--scale 1/2 or --format svg"):
            render_ascii(Schedule(((4, 0), (4, MAX_COLUMNS - 3))))
        # the suggested scale fits whatever scale was asked for
        with pytest.raises(ValueError, match="--scale 1 or"):
            render_ascii(fits, scale=Fraction(10001, 10000))
        # a width past 20 digits shows as its leading digits and digit count
        with pytest.raises(ValueError, match=r"100000\.\.\. \(301 digits\) columns wide.*"
                                             r"--scale 1/100000\.\.\. \(297 digits\) or"):
            render_ascii(Schedule(((3, 10**300),)))


@pytest.mark.parametrize("draw", [render_svg, render_ascii])
@pytest.mark.parametrize("scale", [1, 2, 5])
@pytest.mark.parametrize("traced", [False, True], ids=["schedule", "trace"])
def test_integral_scale_draws_alike_as_int_and_fraction(draw, scale, traced):
    # at scale 5 the peak of 7 gives the trace row a height of 35/6
    schedule = Schedule(((7, 0), (4, 4), (3, 8)))
    trace = simulate(schedule, (6, 1, 3)) if traced else None
    assert draw(schedule, scale=scale, trace=trace) == draw(schedule, scale=Fraction(scale), trace=trace)
