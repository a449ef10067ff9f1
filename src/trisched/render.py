"""Schedule and execution-trace rendering.

Each job draws as a right triangle with vertices (s, 0), (s, h*p),
(s + p, 0): full criticality at the start, expiring linearly at s + p.
Execution traces add one row of rectangles under the time axis, one per
executed interval.  Rendering refuses an infeasible schedule with the
message `simulate` gives, naming its first conflicting pair, and text
rendering refuses a time axis longer than MAX_COLUMNS cells rather than
write rows as long as the largest start.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ExactNumber, Schedule, as_exact, check_feasible, conflict_text, makespan
from .simulate import ExecutionTrace

# Widest time axis render_ascii draws, in text columns.
MAX_COLUMNS = 10_000


def _drawing_scale(schedule: Schedule, scale) -> ExactNumber:
    """`scale` as an exact number, an int when integral, so the default
    scale costs no Fraction arithmetic; refuses an infeasible schedule, then
    a scale that is not an int or Fraction, then one that is not positive."""
    conflict = check_feasible(schedule)
    if conflict is not None:
        raise ValueError(f"schedule is infeasible: {conflict_text(schedule, conflict)}")
    scale = as_exact(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    return scale


def _digits(value: int) -> str:
    """`value`, or its leading digits and digit count past 20 digits."""
    text = str(value)
    return text if len(text) <= 20 else f"{text[:6]}... ({len(text)} digits)"


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a coordinate is too large to draw") from None


def _fmt(value) -> str:
    return f"{_float(value):g}"


def render_svg(schedule: Schedule, scale=1, trace: ExecutionTrace | None = None) -> str:
    """SVG text; `scale` stretches both axes, `trace` adds the execution row."""
    scale = _drawing_scale(schedule, scale)
    span = makespan(schedule)
    peak = max(size for size, _ in schedule.jobs)
    axis_y = peak * scale
    row_h = max(Fraction(peak * scale, 6), 4)
    height = axis_y + (row_h + 2 if trace else 0) + 2
    width = span * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    # the coordinates every job shares are formatted once; each is at most
    # the height, which the viewBox has already formatted
    base = _fmt(axis_y)
    for size, start in schedule.jobs:
        x0 = _fmt(start * scale)
        parts.append(
            f'  <polygon class="job" points="{x0},{base} '
            f'{x0},{_fmt(axis_y - size * scale)} {_fmt((start + size) * scale)},{base}" '
            'fill="none" stroke="black"/>'
        )
    parts.append(f'  <line x1="0" y1="{base}" x2="{_fmt(width)}" y2="{base}" stroke="black"/>')
    if trace is not None:
        row_y, row_height = _fmt(axis_y + 2), _fmt(row_h)
        for record in trace.records:
            if record.executed:
                parts.append(
                    f'  <rect class="run" x="{_fmt(record.start * scale)}" y="{row_y}" '
                    f'width="{_fmt((record.end - record.start) * scale)}" height="{row_height}" fill="gray"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_ascii(schedule: Schedule, scale=1, trace: ExecutionTrace | None = None) -> str:
    """One text row per job in start order, offset by start, spanning size."""
    scale = _drawing_scale(schedule, scale)

    def cells(value) -> int:
        return round(_float(value * scale))

    # Every row of the schedule and of its own execution trace ends by the
    # makespan, give or take a cell of rounding, so this bounds the drawing
    # before any row is built.
    span = makespan(schedule)
    width = cells(span)
    if width > MAX_COLUMNS:
        shrink = -(-span // MAX_COLUMNS)
        fit = "1" if shrink == 1 else f"1/{_digits(shrink)}"
        raise ValueError(
            f"an ASCII drawing {_digits(width)} columns wide exceeds the limit of {MAX_COLUMNS}; "
            f"draw it with --scale {fit} or --format svg"
        )
    lines = []
    order = sorted(range(len(schedule.jobs)), key=lambda i: schedule.jobs[i][1])
    for i in order:
        size, start = schedule.jobs[i]
        bar = "#" * max(1, cells(size))
        lines.append(f"{' ' * cells(start)}{bar}  p={size} s={start}")
    lines.append("-" * max(1, width))
    if trace is not None:
        for i in order:
            record = trace.records[i]
            if record.executed:
                width = max(1, cells(record.end - record.start))
                lines.append(
                    f"{' ' * cells(record.start)}{'=' * width}  run [{record.start}, {record.end})"
                )
            else:
                lines.append(
                    f"{' ' * cells(record.start)}x  canceled by job {record.canceled_by}"
                )
    return "\n".join(lines) + "\n"
