"""CSV trace and JSON summary serialization.

One CSV schema serves all four protocols: `n,p_or_m,v,M,V,x,K`, with absent
fields written empty and floats printed to 17 significant digits so a
reloaded trace replays bit-for-bit.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path
from typing import Dict, Iterable, Optional

from .analysis import Verdict
from .engine import (
    ForecastMove,
    Protocol,
    SkepticBet,
    Trace,
    gc_paused,
)

CSV_HEADER = ["n", "p_or_m", "v", "M", "V", "x", "K"]


def trace_to_csv_text(trace: Trace) -> str:
    """The trace as CSV text, one line per round.

    Each row is one f-string: the bytes `csv.writer` would write, since no
    field can hold a comma, a quote or a line break.  A price-game forecast
    is p and a bet is M, with v and V empty; every other field is a number,
    since `run_game` validates the moves and the reader parses each field
    as a float.  A forecast, bet, x or K that is the previous row's object
    again (a shared move, a kept capital) reuses its text.  The test is
    `is`, never `==`: 0.0 == -0.0, and NaN equals nothing."""
    lines = [",".join(CSV_HEADER) + "\n"]
    append = lines.append
    uses_price = trace.protocol.kind.uses_price
    f = bet = x = k = object()    # no field is this object
    for n, (new_f, new_bet, new_x, new_k) in enumerate(
            zip(trace.forecasts, trace.bets, trace.xs, trace.capitals), 1):
        if new_f is not f:
            f = new_f
            f_text = f"{f:.17g}," if uses_price else f"{f.m:.17g},{f.v:.17g}"
        if new_bet is not bet:
            bet = new_bet
            bet_text = f"{bet:.17g}," if uses_price else f"{bet.M:.17g},{bet.V:.17g}"
        if new_x is not x:
            x = new_x
            x_text = format(x, ".17g")
        if new_k is not k:
            k = new_k
            k_text = format(k, ".17g")
        append(f"{n},{f_text},{bet_text},{x_text},{k_text}\n")
    return "".join(lines)


def write_trace_csv(trace: Trace, path) -> None:
    Path(path).write_text(trace_to_csv_text(trace), encoding="utf-8")


def _read_rows(lines: Iterable[str], protocol: Protocol,
               seed: Optional[int]) -> Trace:
    """Parse CSV lines into a trace, one row at a time.  A forecast, bet, x
    or K whose text repeats the previous row's is that row's object again,
    as in the trace that was written.  Only the previous row is compared: a
    memo over every distinct price would cost more than it saves."""
    import csv

    reader = csv.reader(lines)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    uses_price = protocol.kind.uses_price
    trace = Trace(protocol=protocol, seed=seed)
    add_f, add_s = trace.forecasts.append, trace.bets.append
    add_x, add_k = trace.xs.append, trace.capitals.append
    # The previous row's texts; None matches no field, so row 1 parses all.
    p_text = v_text = m_text = vb_text = x_text = k_text = None
    # The rows become acyclic moves, kept in the trace: see gc_paused.
    with gc_paused():
        for expected, row in enumerate(filter(None, reader), 1):
            n, p_or_m, v, m_bet, v_bet, xs, ks = row
            if int(n) != expected:
                raise ValueError(f"CSV line {reader.line_num}: n = {n},"
                                 f" expected {expected}")
            if uses_price:
                if p_or_m != p_text:
                    p_text, forecast = p_or_m, float(p_or_m)
                if m_bet != m_text:
                    m_text, bet = m_bet, float(m_bet)
            else:
                if p_or_m != p_text or v != v_text:
                    p_text, v_text = p_or_m, v
                    forecast = ForecastMove(float(p_or_m), float(v))
                if m_bet != m_text or v_bet != vb_text:
                    m_text, vb_text = m_bet, v_bet
                    bet = SkepticBet(float(m_bet), float(v_bet))
            if xs != x_text:
                x_text, x = xs, float(xs)
            if ks != k_text:
                k_text, k = ks, float(ks)
            add_f(forecast)
            add_s(bet)
            add_x(x)
            add_k(k)
    return trace


def trace_from_csv_text(text: str, protocol: Protocol,
                        seed: Optional[int] = None) -> Trace:
    return _read_rows(io.StringIO(text), protocol, seed)


def read_trace_csv(path, protocol: Protocol, seed: Optional[int] = None) -> Trace:
    """Read the trace row by row from the open file, never the whole text."""
    with open(path, encoding="utf-8", newline="") as lines:
        return _read_rows(lines, protocol, seed)


def summary_dict(name: str, trace: Trace, verdict: Verdict) -> Dict:
    xs = trace.xs
    if trace.protocol.kind.uses_price:
        heads = xs.count(1.0)
        final_mean = sum(xs) / len(xs)
    else:
        forecasts = trace.forecasts
        heads = sum(1 for x, f in zip(xs, forecasts) if x != f.m)
        final_mean = sum(x - f.m for x, f in zip(xs, forecasts)) / len(xs)
    return {
        "scenario": name,
        "seed": trace.seed,
        "sup_capital": verdict.sup_capital,
        "skeptic_duty_ok": verdict.skeptic_duty_ok,
        "strong_bound_ok": verdict.strong_bound_ok,
        "event_proxy_ok": verdict.event_proxy_ok,
        "heads": heads,
        "final_mean": final_mean,
    }


def write_summary_json(summary: Dict, path) -> None:
    """Write the summary as strict JSON: a NaN or infinite float is null."""
    strict = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in summary.items()
    }
    text = json.dumps(strict, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")
