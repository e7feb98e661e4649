"""Paired kernel timer: one digest kernel of a base commit and of the
working tree, called alternately in one process.

    python3 benchmarks/kernel_pairs.py --base HEAD --fn digest_many \
        --input save:1M,2.5M,4M [--pairs 120] [--control]
    make kernel-pairs BASE=HEAD FN=digest_many INPUT=save:1M,2.5M,4M \
        [CONTROL=1]

Run it from the repository root.  The base tree is extracted with
``git archive`` into a temporary directory, and each tree's
``repro/simhash`` package is loaded under a name of its own, so both
kernels live in one process and see one allocator.  A whole-workload
comparison is ``make perfbench-pairs``; this one times a kernel.

The allocator matters at this scale.  In a fresh process glibc trims
the heap each time a call frees its scratch, so every call pays page
faults and system time for memory it gets back at once.  Freeing one
block of 16 MiB or more raises glibc's dynamic thresholds and ends
that.  perfbench's set-up frees such blocks, so the timer frees one
first (it changes no environment variable and calls no ``mallopt``).
It then measures minor faults and system time per call, and flags any
leg whose calls still fault.

``--fn`` names the kernel:

* ``sdhash`` — ``sdhash(old)``;
* ``window_entropies`` — ``_window_entropies`` over ``old``'s anchored
  windows (the anchors are found outside the timed call);
* ``digest_many`` — ``digest_many([old])``, handed a
  ``WindowReference`` built from the stream of the input's new version
  when the input has one and the tree's kernel takes it.  Each call
  gets a fresh reference made from every field that tree's
  ``window_reference`` hands over (its constructor's parameters);
* ``stream`` — a ``StreamingDigestState()`` fed ``old`` in 64 KiB
  chunks, then ``finalize()``.  The chunks are cut outside the timed
  call.  Every tree's no-argument constructor digests from byte 0, so
  any base that has the class can be timed;
* ``compare`` — ``compare(sdhash(old), sdhash(new))``, both digests
  built outside the timed call; an input with no new version compares
  ``old`` with its bytes reversed (``cipher:4K`` is a 1×1 filter
  pair, ``save:1.4M`` about 66×66).

``--input`` is ``kind:size[,size...]``; each size (bytes, or with a
``K`` or ``M`` suffix) is one leg.  Kinds: ``text`` (bulk_append's
paragraph text), ``cipher`` (random bytes), ``save`` (text plus
bulk_append's edit of it, one 4 KiB block in twenty replaced, as the
new version) and ``unrelated`` (text plus other text from the same
generator as the new version).

For each leg it prints both trees' median time per call, the change's
difference from the base, the share of pairs in which the change was
faster, and each tree's minor faults and system time per call.

``--control`` loads the base tree a second time and times it as a third
side, each round taking the three in one of their six orders in turn.
Each leg then also prints the base against itself (ratio and pairs
won): how far a reading drifts with no code change, to judge the
change's ratio against.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import itertools
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("text", "cipher", "save", "unrelated")
KERNELS = ("sdhash", "window_entropies", "digest_many", "stream",
           "compare")
#: the write size ``stream`` feeds, bulk_append's
STREAM_CHUNK = 64 << 10
#: rounds per leg: at 40 a base-against-itself control read 0.881x at
#: 4 MiB on a loaded 2-CPU host, at 120 every control stayed within
#: 0.97-1.04x, so a few percent is resolved by default
DEFAULT_PAIRS = 120


class Case(NamedTuple):
    """One leg's input: the version to digest and, for ``save`` and
    ``unrelated``, the new version whose stream lends its windows."""

    name: str
    old: bytes
    new: Optional[bytes] = None


def parse_size(text: str) -> int:
    """``4096``, ``64K``, ``2.5M`` → bytes."""
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:].upper(), 1)
    return int(float(text[:-1] if scale > 1 else text) * scale)


def parse_input(spec: str) -> tuple:
    """``kind:size[,size...]`` → ``(kind, [sizes])``."""
    kind, _, sizes = spec.partition(":")
    if kind not in KINDS or not sizes:
        raise ValueError(f"--input must be kind:size[,size...] with kind "
                         f"in {', '.join(KINDS)}: {spec!r}")
    return kind, [parse_size(size) for size in sizes.split(",")]


def make_case(kind: str, size: int) -> Case:
    """The bytes of one leg, the same for both trees (the working tree's
    text generator makes them)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.corpus.wordlists import paragraph
    rng = random.Random(f"{kind}:{size}")
    pool = [(paragraph(rng) + "\n\n").encode() for _ in range(400)]

    def text(n: int) -> bytes:
        parts, total = [], 0
        while total < n:
            parts.append(rng.choice(pool))
            total += len(parts[-1])
        return b"".join(parts)[:n]

    name = f"{kind}:{size}"
    if kind == "cipher":
        return Case(name, rng.randbytes(size))
    old = text(size)
    if kind == "text":
        return Case(name, old)
    if kind == "unrelated":
        return Case(name, old, text(size))
    blocks = [old[i:i + 4096] for i in range(0, size, 4096)]
    for i in range(len(blocks)):
        if rng.random() < 0.05:
            blocks[i] = text(len(blocks[i]))
    return Case(name, old, b"".join(blocks))


def load_simhash(tree: Path, alias: str):
    """``<tree>/src/repro/simhash`` imported as package ``alias``; returns
    its ``sdhash`` module."""
    package = tree / "src" / "repro" / "simhash"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.sdhash")


def prepare(mod, kernel: str, case: Case) -> Callable[[], object]:
    """A no-argument call of ``kernel`` from module ``mod`` on ``case``;
    everything it does not time is done here."""
    import numpy as np
    old = case.old
    if kernel == "sdhash":
        return lambda: mod.sdhash(old)
    if kernel == "window_entropies":
        buf = np.frombuffer(old, dtype=np.uint8)
        starts = mod._anchor_positions(buf)
        return lambda: mod._window_entropies(buf, starts)
    if kernel == "stream":
        chunks = [old[at:at + STREAM_CHUNK]
                  for at in range(0, len(old), STREAM_CHUNK)]

        def stream():
            state = mod.StreamingDigestState()
            for chunk in chunks:
                state.update(chunk)
            return state.finalize()
        return stream
    if kernel == "compare":
        a = mod.sdhash(old)
        b = mod.sdhash(old[::-1] if case.new is None else case.new)
        return lambda: mod.compare(a, b)
    if case.new is None or not hasattr(mod, "WindowReference"):
        return lambda: mod.digest_many([old])
    state = mod.StreamingDigestState()
    for at in range(0, len(case.new), STREAM_CHUNK):
        state.update(case.new[at:at + STREAM_CHUNK])
    lent = state.window_reference(case.new)
    fields = [getattr(lent, name) for name in
              inspect.signature(mod.WindowReference).parameters]
    # a fresh reference per call: keying the new version's chunks is
    # part of what a comparison pays
    return lambda: mod.digest_many([old],
                                   reference=mod.WindowReference(*fields))


def _timed(call: Callable[[], object]) -> tuple:
    """``(seconds, minor faults, system seconds)`` of one call."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    call()
    elapsed = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (elapsed, after.ru_minflt - before.ru_minflt,
            after.ru_stime - before.ru_stime)


def run_leg(calls: Dict[str, Callable[[], object]], pairs: int) -> dict:
    """Call every side once per round, ``pairs`` rounds, after one
    warm-up call each; round ``i`` takes the sides in the ``i``-th of
    their orders in turn (two sides alternate which goes first).  Every
    call's measurements per side."""
    for call in calls.values():
        call()
    out: Dict[str, List[tuple]] = {side: [] for side in calls}
    orders = list(itertools.permutations(calls))
    for i in range(pairs):
        for side in orders[i % len(orders)]:
            out[side].append(_timed(calls[side]))
    return out


def summarise(base: Sequence[tuple], change: Sequence[tuple]) -> dict:
    """One leg's statistics from paired ``(seconds, faults, system
    seconds)`` measurements (``base[i]`` and ``change[i]`` are pair
    ``i``): each side's median seconds, the change's difference and
    ratio, the share of pairs the change won (ties count for neither),
    each side's mean faults and system seconds per call, and whether
    any call faulted."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of calls per side")
    med_b = statistics.median(t for t, _, _ in base)
    med_c = statistics.median(t for t, _, _ in change)
    won = sum(c[0] < b[0] for b, c in zip(base, change))
    faults = {side: sum(f for _, f, _ in runs) / len(runs)
              for side, runs in (("base", base), ("change", change))}
    stime = {side: sum(s for _, _, s in runs) / len(runs)
             for side, runs in (("base", base), ("change", change))}
    return {"pairs": len(base), "base_s": med_b, "change_s": med_c,
            "diff_s": med_c - med_b,
            "ratio": med_c / med_b if med_b else float("inf"),
            "won": won / len(base), "faults": faults, "stime_s": stime,
            "faulted": faults["base"] > 0 or faults["change"] > 0}


def render(rows: List[tuple]) -> str:
    """``(leg name, summary[, control summary])`` rows as a table, times
    per call in µs; a control summary (the base against itself) adds its
    ratio and pairs won."""
    control = any(len(row) > 2 for row in rows)
    out = [f"{'leg':<20} {'base us':>10} {'change us':>10} {'diff us':>9} "
           f"{'ratio':>6} {'won':>5}  "
           + (f"{'ctrl ratio':>10} {'won':>5}  " if control else "")
           + f"{'faults/call':>15}  {'sys us/call':>15}"]
    for name, row, *ctrl in rows:
        flag = "  FAULTS" if row["faulted"] else ""
        out.append(
            f"{name:<20} {row['base_s'] * 1e6:>10.1f} "
            f"{row['change_s'] * 1e6:>10.1f} {row['diff_s'] * 1e6:>+9.1f} "
            f"{row['ratio']:>6.3f} {row['won']:>5.0%}  "
            + (f"{ctrl[0]['ratio']:>10.3f} {ctrl[0]['won']:>5.0%}  "
               if ctrl else "")
            + f"{row['faults']['base']:>7.1f}/{row['faults']['change']:<7.1f}"
            f"  {row['stime_s']['base'] * 1e6:>7.1f}/"
            f"{row['stime_s']['change'] * 1e6:<7.1f}{flag}")
    return "\n".join(out)


def _extract(base: str, into: Path) -> None:
    """``git archive`` of ``base``'s ``src`` unpacked into ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", base, "src"],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)


def build_parser() -> argparse.ArgumentParser:
    """The command line; ``--pairs`` defaults to ``DEFAULT_PAIRS``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="commit to compare the working tree against")
    parser.add_argument("--fn", required=True, choices=KERNELS)
    parser.add_argument("--input", required=True,
                        help="kind:size[,size...], one leg per size")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    parser.add_argument("--control", action="store_true",
                        help="also time the base against itself")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind, sizes = parse_input(args.input)
    # leave the allocator as perfbench's set-up does: once a freed block
    # of 16 MiB or more has raised glibc's thresholds, a call's scratch
    # stays in the heap instead of being trimmed and faulted back in
    block = bytearray(16 << 20)
    del block
    rows = []
    with tempfile.TemporaryDirectory(prefix="kernel-base-") as tmp:
        _extract(args.base, Path(tmp))
        mods = {"base": load_simhash(Path(tmp), "_kernel_base_simhash"),
                "change": load_simhash(ROOT, "_kernel_change_simhash")}
        if args.control:
            mods["control"] = load_simhash(Path(tmp),
                                           "_kernel_control_simhash")
        for size in sizes:
            case = make_case(kind, size)
            calls = {side: prepare(mod, args.fn, case)
                     for side, mod in mods.items()}
            runs = run_leg(calls, args.pairs)
            row = (case.name, summarise(runs["base"], runs["change"]))
            if args.control:
                row += (summarise(runs["base"], runs["control"]),)
            rows.append(row)
            print(render(rows[-1:]).splitlines()[-1], flush=True)
    print(f"{args.fn} {args.input}: {args.base} vs working tree"
          + (f" (control: {args.base} vs itself)" if args.control else "")
          + f", {args.pairs} alternating rounds per leg")
    print(render(rows))
    faulted = [name for name, row, *_ in rows if row["faulted"]]
    if faulted:
        print("kernel-pairs: calls faulted in " + ", ".join(faulted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
