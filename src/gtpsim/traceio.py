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
from typing import Dict, Iterable, Iterator, Optional

from .analysis import Verdict
from .engine import (
    PACK_ROUNDS,
    ForecastMove,
    Protocol,
    SkepticBet,
    Trace,
    gc_paused,
)

CSV_HEADER = ["n", "p_or_m", "v", "M", "V", "x", "K"]


# Rows formatted, joined and written at a time: the writer holds one piece
# of the text, never the whole.
CSV_PIECE_ROWS = 1024


def _rows_text(uses_price: bool, first: int, forecasts, bets, xs, capitals) -> str:
    """Rows `first`, `first` + 1, ... of the CSV text, one per entry of the
    four columns.

    Each row is one f-string: the bytes `csv.writer` would write, since no
    field can hold a comma, a quote or a line break.  A price-game forecast
    is p and a bet is M, with v and V empty; every other field is a number,
    since `run_game` validates the moves and the reader parses each field
    as a float.  A field whose value has the bits of the previous row's
    reuses its text.  A float's bits are the same when it is `==` and of
    the same sign: 0.0 == -0.0 but prints apart, and NaN, equal to nothing,
    is formatted again.  A ForecastMove or SkepticBet is the same when it
    `is` the previous row's, as a shared move is."""
    copysign = math.copysign
    lines = []
    append = lines.append
    f = bet = x = k = object()    # no field is this object or equals it
    for n, (new_f, new_bet, new_x, new_k) in enumerate(
            zip(forecasts, bets, xs, capitals), first):
        if uses_price:
            if new_f != f or not new_f and copysign(1.0, new_f) != copysign(1.0, f):
                f = new_f
                f_text = f"{f:.17g},"
            if new_bet != bet or not new_bet and copysign(1.0, new_bet) != copysign(1.0, bet):
                bet = new_bet
                bet_text = f"{bet:.17g},"
        else:
            if new_f is not f:
                f = new_f
                f_text = f"{f.m:.17g},{f.v:.17g}"
            if new_bet is not bet:
                bet = new_bet
                bet_text = f"{bet.M:.17g},{bet.V:.17g}"
        if new_x != x or not new_x and copysign(1.0, new_x) != copysign(1.0, x):
            x = new_x
            x_text = format(x, ".17g")
        if new_k != k or not new_k and copysign(1.0, new_k) != copysign(1.0, k):
            k = new_k
            k_text = format(k, ".17g")
        append(f"{n},{f_text},{bet_text},{x_text},{k_text}\n")
    return "".join(lines)


def _csv_pieces(trace: Trace) -> Iterator[str]:
    """The trace's CSV text: the header, then CSV_PIECE_ROWS rows a piece."""
    yield ",".join(CSV_HEADER) + "\n"
    uses_price = trace.protocol.kind.uses_price
    for start in range(0, len(trace.capitals), CSV_PIECE_ROWS):
        stop = start + CSV_PIECE_ROWS
        yield _rows_text(uses_price, start + 1,
                         *(column[start:stop] for column in trace.columns))


def trace_to_csv_text(trace: Trace) -> str:
    """The trace as CSV text, one line per round."""
    return "".join(_csv_pieces(trace))


def write_trace_csv(trace: Trace, path) -> None:
    """Write the CSV text to the file a piece at a time, never the whole."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_csv_pieces(trace))


def _read_rows(lines: Iterable[str], protocol: Protocol,
               seed: Optional[int]) -> Trace:
    """Parse CSV lines into a trace, one row at a time.  A forecast, bet, x
    or K whose text repeats the previous row's is not parsed again but is
    that row's object, which a mean-variance trace keeps as the trace that
    was written did.  Only the previous row is compared: a memo over every
    distinct price would cost more than it saves."""
    import csv

    reader = csv.reader(lines)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    uses_price = protocol.kind.uses_price
    trace = Trace(protocol=protocol, seed=seed)
    # Rows go to lists, packed into the trace every PACK_ROUNDS rows.
    pending = [], [], [], []
    add_f, add_s, add_x, add_k = [rows.append for rows in pending]
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
            if not expected % PACK_ROUNDS:
                trace.extend(*pending)
        trace.extend(*pending)
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
