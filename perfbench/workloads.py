"""The benchmark's workloads: inputs, timed items and correctness checks.

A pass over a workload enumerates its inputs (set-up), submits every item
once in an order shuffled by the seed (the timed region), then checks the
outputs against the record in ``expected.json``.  Seed 0 keeps the canonical
grid order.  Results do not depend on the order, so any difference between
seeds comes from caching.

Only public names of ``frobtab`` are called.  An exception raised by an item
counts as a failed item and never ends the pass.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

import frobtab

EXPECTED_PATH = Path(__file__).with_name("expected.json")

def report_line(r) -> str:
    """One ``CharacterReport`` in the line format of ``frobtab verify-all``."""
    return json.dumps(
        {
            "a": r.a,
            "b": r.b,
            "d": r.d,
            "n": r.n,
            "case": r.case,
            "match": r.match,
            "independent": r.independent,
            "spanning": r.spanning,
            "basis_count": r.basis_count,
            "quotient_dim": r.quotient_dim,
            "ok": r.ok,
        }
    )


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def orbit_weights(degree: int, n: int):
    """One weight 2^i 1^j 0^(n-i-j) per (i, j) orbit of the given degree."""
    for i in range(degree // 2 + 1):
        j = degree - 2 * i
        if i + j <= n:
            yield (i, j), (2,) * i + (1,) * j + (0,) * (n - i - j)


def product_coeff(p, q, w) -> int:
    """Coefficient of p * q at the weight w, read through ``.coeff()``."""
    return sum(
        p.coeff(u) * q.coeff(tuple(x - y for x, y in zip(w, u)))
        for u in product(*(range(x + 1) for x in w))
    )


# ---------------------------------------------------------------------------
# verify-grid
# ---------------------------------------------------------------------------


def verify_inputs(max_a: int, max_n: int) -> list:
    """Every triple of ``verify-all --max-a max_a --max-n max_n``, in its order."""
    return [
        frobtab.IndexTriple(a, b, d, n)
        for n in range(1, max_n + 1)
        for a in range(1, max_a + 1)
        for b in range(0, a + 1)
        for d in range(0, b + 1)
    ]


def verify_item(idx):
    report = frobtab.verify_triple(idx)
    return report, report.ok


def verify_item_traced(idx):
    """``verify_item`` with the spanning sets built first, in their own spans
    (skipped if a later version has no ``ideal_power_span``)."""
    span = getattr(frobtab, "ideal_power_span", None)
    if span is not None:
        span(idx.d, (idx.a, idx.b), idx.n)
        span(idx.d + 1, (idx.a, idx.b), idx.n)
    return verify_item(idx)


def span_ranks(outputs) -> dict:
    """Rank of each ``ideal_power_span(d, (a, b), n)`` of the grid, as the sum
    of the subquotient dimensions from power d up to b."""
    dims = {}
    for out in outputs:
        if out is not None:
            r = out[0]
            dims[(r.a, r.b, r.d, r.n)] = r.quotient_dim
    return {
        (d, (a, b), n): sum(dims.get((a, b, e, n), 0) for e in range(d, b + 1))
        for (a, b, _, n) in dims
        for d in range(b + 2)
    }


def verify_check(inputs, outputs, n: int):
    ok = [out is not None and out[1] for out in outputs]
    lines = [report_line(out[0]) for out in outputs if out is not None]
    return ok, {"digest": digest(lines)}


# ---------------------------------------------------------------------------
# straighten-grid
# ---------------------------------------------------------------------------


def straighten_inputs(max_a: int, max_n: int) -> list:
    """Every semistandard tableau of every triple 0<=d<=b<=a<=max_a, n<=max_n."""
    out = []
    for n in range(1, max_n + 1):
        for a in range(0, max_a + 1):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = frobtab.IndexTriple(a, b, d, n)
                    out.extend((t, idx) for t in frobtab.enumerate_tableaux(idx.shape, n))
    return out


def straighten_item(item):
    """Straighten one tableau and certify the output with the oracle."""
    t, idx = item
    result = frobtab.two_straighten(t, idx)
    straight = all(frobtab.is_two_straight(u, idx) for u in result)
    diff = frobtab.standard_monomial(t, idx.a) + result.element_sum()
    return result, straight and frobtab.in_ideal_power(diff, idx.d + 1)


def _straighten_line(item, result) -> str:
    t, idx = item
    terms = " + ".join(frobtab.format_tableau(u) for u in result)
    return f"{idx.a} {idx.b} {idx.d} {idx.n} | {frobtab.format_tableau(t)} | {terms}"


def straighten_check(inputs, outputs, n: int):
    ok = [out is not None and out[1] for out in outputs]
    lines = sorted(
        _straighten_line(item, out[0]) for item, out in zip(inputs, outputs) if out is not None
    )
    return ok, {"digest": digest(lines)}


# ---------------------------------------------------------------------------
# formula-wide
# ---------------------------------------------------------------------------


def formula_inputs(max_a: int, n: int) -> list:
    return [
        (a, b, d, n)
        for a in range(1, max_a + 1)
        for b in range(0, a + 1)
        for d in range(0, b + 1)
    ]


def formula_item(item):
    return frobtab.expected_character(*item), True


def formula_readings(item, out, n: int):
    """All ``formula_check`` reads of one character: its coefficient at one
    weight per orbit and at that weight reversed.  Taken right after the item
    is timed, so a pass holds no characters and its peak memory does not
    depend on the submission order."""
    a, b, _, _ = item
    char = out[0]
    readings = {
        orbit: (char.coeff(w), char.coeff(w[::-1])) for orbit, w in orbit_weights(a + b, n)
    }
    return readings, out[1]


def formula_check(inputs, outputs, n: int):
    """Check the readings of ``formula_readings``: each character agrees with
    itself at reversed weights, by symmetry, and the powers telescope to
    h_squarefree(a) * h_squarefree(b) at the same weights."""
    table: dict[str, dict[str, int]] = {}
    symmetric: dict[str, bool] = {}
    sums: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for (a, b, d, _), out in zip(inputs, outputs):
        if out is None:
            continue
        readings = out[0]
        acc = sums.setdefault((a, b), {})
        for orbit, (c, _) in readings.items():
            acc[orbit] = acc.get(orbit, 0) + c
        symmetric[f"{a},{b},{d}"] = all(c == rev for c, rev in readings.values())
        table[f"{a},{b},{d}"] = {f"{i},{j}": c for (i, j), (c, _) in readings.items()}
    telescopes = {
        (a, b): all(
            sums[(a, b)][orbit]
            == product_coeff(frobtab.h_squarefree(a, n), frobtab.h_squarefree(b, n), w)
            for orbit, w in orbit_weights(a + b, n)
        )
        for a, b in sums
    }
    ok = [
        out is not None and symmetric[f"{a},{b},{d}"] and telescopes[(a, b)]
        for (a, b, d, _), out in zip(inputs, outputs)
    ]
    return ok, {"table": table}


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    item: Callable
    check: Callable
    # arguments of ``inputs`` per grid size: (largest a, largest n), or
    # (largest a, n) for formula-wide; the tiny grids serve the benchmark's tests
    grids: dict
    traced_item: Callable | None = None
    # ``keep(input, output, n)``: what a pass holds of an output, taken after
    # the item is timed; by default the output itself
    keep: Callable | None = None


WORKLOADS = {
    "verify-grid": Workload(
        verify_inputs, verify_item, verify_check, {"full": (6, 6), "tiny": (2, 3)},
        verify_item_traced,
    ),
    "straighten-grid": Workload(
        straighten_inputs, straighten_item, straighten_check, {"full": (4, 6), "tiny": (2, 3)}
    ),
    "formula-wide": Workload(
        formula_inputs, formula_item, formula_check, {"full": (5, 10), "tiny": (2, 10)},
        keep=formula_readings,
    ),
}


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# Each vCPU of the shared virtual machine this benchmark was written on flips
# every second or so between two speeds about 1.75x apart, in CPU time as
# much as in wall time, and the share of slow time drifts over minutes; no
# number of passes averages that out.  So a pass times a fixed piece of
# pure-Python work, the reference chunk, after every REF_EVERY_S of item
# time, and each item's latency is divided by its slowdown: the mean time of
# the chunks just before and after it, over REF_NOMINAL_S.
REF_STEPS = 2000
REF_NOMINAL_S = 0.0036  # one chunk on a 2.1 GHz Xeon vCPU at its fast speed
REF_EVERY_S = 0.02
SETUP_REF_CHUNKS = 3  # set-up is divided by the slowdown of the first chunks

_ref_keys: dict = {}  # kept across chunks, so a warm chunk allocates nothing


def reference_chunk() -> float:
    """Seconds taken by REF_STEPS steps of the operations frobtab spends its
    time in (tuple sums looked up in a dict, GF(2) row reduction), calling no
    frobtab code."""
    t = time.perf_counter()
    pivots = {}
    x = 1
    for _ in range(REF_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        e = tuple(a + b for a, b in zip((x & 3, x >> 2 & 3, x >> 4 & 3),
                                        (x >> 6 & 3, x >> 8 & 3, x >> 10 & 3)))
        _ref_keys[e] = _ref_keys.get(e, 0) + 1
        v = x >> 12 & 0xFFFF
        while v and (p := pivots.get(v.bit_length())):
            v ^= p
        if v:
            pivots[v.bit_length()] = v
    return time.perf_counter() - t


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    """Measurements and check outcome of one pass.  Times are as measured;
    divide them by their slowdown for times at the reference speed."""

    wall_s: float  # the items' time, without the reference chunks
    setup_s: float
    setup_slowdown: float
    peak_rss_mb: float
    latencies_s: list[float]  # per item, in grid order
    slowdowns: list[float]  # per item, in grid order
    attempted: int
    failed: int
    record: dict
    problems: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list, repr=False)  # in grid order

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def shuffled(items, seed: int) -> list:
    """Submission order: seed 0 keeps the grid order; any other seed shuffles
    it reproducibly."""
    order = list(items)
    if seed:
        random.Random(seed).shuffle(order)
    return order


def load_expected(size: str, workload: str) -> dict | None:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh)[size][workload]
    except (OSError, KeyError):
        return None


def run_pass(workload: str, seed: int, size: str = "full", t0: float | None = None,
             tracer=None) -> PassResult:
    """Run one pass.  ``t0`` is the monotonic time the process was started;
    set-up time runs from there to the first timed call."""
    if t0 is None:
        t0 = time.monotonic()
    spec = WORKLOADS[workload]
    grid = spec.grids[size]
    run_item = spec.item
    if tracer is not None:
        run_item = tracer.wrap(tracer.ROOT_SPAN, spec.traced_item or spec.item)

    inputs = spec.inputs(*grid)
    order = shuffled(range(len(inputs)), seed)
    outputs: list = [None] * len(inputs)
    latencies: list[float] = [0.0] * len(inputs)
    problems: list[str] = []
    setup_s = time.monotonic() - t0
    ref_s = [reference_chunk()]
    chunk_after = [0] * len(inputs)  # index in ref_s of the chunk after each item
    since_ref = 0.0
    for i in order:
        t = time.perf_counter()
        try:
            outputs[i] = run_item(inputs[i])
        except Exception as exc:  # a failing item is counted, never fatal
            problems.append(f"{inputs[i]!r}: {exc!r}")
        latencies[i] = time.perf_counter() - t
        if spec.keep is not None and outputs[i] is not None:
            try:
                outputs[i] = spec.keep(inputs[i], outputs[i], grid[1])
            except Exception as exc:
                outputs[i] = None
                problems.append(f"{inputs[i]!r}: {exc!r}")
        chunk_after[i] = len(ref_s)
        since_ref += latencies[i]
        if since_ref >= REF_EVERY_S:
            ref_s.append(reference_chunk())
            since_ref = 0.0
    if since_ref:
        ref_s.append(reference_chunk())
    slowdowns = [(ref_s[k - 1] + ref_s[k]) / (2 * REF_NOMINAL_S) for k in chunk_after]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()  # the checks below are not part of any layer

    ok, record = spec.check(inputs, outputs, grid[1])
    for i, good in enumerate(ok):
        if not good and outputs[i] is not None:
            problems.append(f"{inputs[i]!r}: certificate failed")
    expected = load_expected(size, workload)
    if expected is None:
        problems.append(f"no record for {workload} ({size}) in {EXPECTED_PATH.name}")
    elif workload == "formula-wide":
        # per item: a flipped coefficient fails that item only
        for i, (a, b, d, _) in enumerate(inputs):
            key = f"{a},{b},{d}"
            if outputs[i] is not None and record["table"].get(key) != expected["table"].get(key):
                ok[i] = False
                problems.append(f"{inputs[i]!r}: coefficients differ from the record")
    elif record["digest"] != expected["digest"]:
        problems.append(f"output digest {record['digest'][:12]} differs from the record")
    return PassResult(
        wall_s=sum(latencies),
        setup_s=setup_s,
        setup_slowdown=statistics.mean(ref_s[:SETUP_REF_CHUNKS]) / REF_NOMINAL_S,
        peak_rss_mb=peak_rss_mb,
        latencies_s=latencies,
        slowdowns=slowdowns,
        attempted=len(inputs),
        failed=sum(1 for good in ok if not good),
        record=record,
        problems=problems,
        outputs=outputs,
    )

