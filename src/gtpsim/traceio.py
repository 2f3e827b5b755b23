"""CSV trace and JSON summary serialization.

One CSV schema serves all four protocols: `n,p_or_m,v,M,V,x,K`, with absent
fields written empty and floats printed to 17 significant digits so a
reloaded trace replays bit-for-bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Optional

from .analysis import Verdict
from .engine import (
    ForecastMove,
    Protocol,
    RoundRecord,
    SkepticBet,
    Trace,
    gc_paused,
)

CSV_HEADER = ["n", "p_or_m", "v", "M", "V", "x", "K"]


def trace_to_csv_text(trace: Trace) -> str:
    """The trace as CSV text, one line per round.

    Each row is one f-string: the bytes `csv.writer` would write, since no
    field can hold a comma, a quote or a line break.  p_or_m, v and V may be
    absent (written empty); M, x and K are numbers in every trace, since
    `run_game` validates them and the reader parses them as floats."""
    lines = [",".join(CSV_HEADER) + "\n"]
    append = lines.append
    for r in trace.rounds:
        f, bet = r.forecast, r.bet
        p_or_m = f.p if f.p is not None else f.m
        v, V = f.v, bet.V
        append(
            f"{r.n},"
            f"{'' if p_or_m is None else format(p_or_m, '.17g')},"
            f"{'' if v is None else format(v, '.17g')},"
            f"{bet.M:.17g},"
            f"{'' if V is None else format(V, '.17g')},"
            f"{r.x:.17g},{r.capital_after:.17g}\n"
        )
    return "".join(lines)


def write_trace_csv(trace: Trace, path) -> None:
    Path(path).write_text(trace_to_csv_text(trace), encoding="utf-8")


def trace_from_csv_text(text: str, protocol: Protocol,
                        seed: Optional[int] = None) -> Trace:
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    uses_price = protocol.kind.uses_price
    rounds = []
    # The rows become acyclic records, kept until the trace is built: see
    # gc_paused.
    with gc_paused():
        for row in reader:
            if not row:
                continue
            n, p_or_m, v, m_bet, v_bet, x, k = row
            if uses_price:
                forecast = ForecastMove(float(p_or_m))
                bet = SkepticBet(float(m_bet))
            else:
                forecast = ForecastMove(None, float(p_or_m), float(v))
                bet = SkepticBet(float(m_bet), float(v_bet))
            rounds.append(RoundRecord(int(n), forecast, bet, float(x), float(k)))
    return Trace(protocol=protocol, rounds=rounds, seed=seed)


def read_trace_csv(path, protocol: Protocol, seed: Optional[int] = None) -> Trace:
    return trace_from_csv_text(Path(path).read_text(encoding="utf-8"), protocol, seed)


def summary_dict(name: str, trace: Trace, verdict: Verdict) -> Dict:
    uses_price = trace.protocol.kind.uses_price
    if uses_price:
        heads = sum(1 for r in trace.rounds if r.x == 1.0)
        final_mean = sum(r.x for r in trace.rounds) / len(trace.rounds)
    else:
        heads = sum(1 for r in trace.rounds if r.x != r.forecast.m)
        final_mean = sum(r.x - r.forecast.m for r in trace.rounds) / len(trace.rounds)
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
