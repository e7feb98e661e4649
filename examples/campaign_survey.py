#!/usr/bin/env python
"""Campaign survey: a scaled-down version of the paper's evaluation.

Runs a few samples from every one of the fourteen families against a
shared corpus with per-sample VM revert, then prints the Table-I-style
family breakdown, the Fig.-3 files-lost distribution, the Fig.-5
extension frequencies, and the §V-B2 union accounting.

Run:  python examples/campaign_survey.py [--full] [--perf] [--telemetry]

``--full`` runs the complete 492-sample cohort on the 5,099-file corpus
(a few minutes of CPU); the default is a faithful small-scale pass.
``--perf`` appends the campaign's aggregated engine counters (digest
cache and BaselineStore traffic, bytes digested, throughput — see
docs/performance.md).
``--telemetry`` runs the sweep with per-sample telemetry enabled and
appends the campaign-wide aggregate (event counts by kind, merged
metric totals — see docs/observability.md).
"""

import argparse

from repro.core import CryptoDropConfig
from repro.experiments import (FULL, SMALL, campaign_at_scale, run_fig3,
                               run_fig5, run_table1, run_union_effect)


def print_perf(campaign) -> None:
    """The campaign's merged per-sample engine counters, human-readable."""
    perf = campaign.perf_stats()
    cache = perf.get("digest_cache", {})
    print("campaign performance")
    print(f"  samples              {perf.get('samples', 0)}")
    if perf.get("wall_seconds"):
        print(f"  wall seconds         {perf['wall_seconds']:.2f}")
        print(f"  samples/second       {perf['samples_per_second']:.2f}")
        print(f"  workers              {perf.get('workers', 1)}")
    store = perf.get("baseline_store")
    if store:
        print(f"  baseline store       {store['entries']} entries "
              f"({store['backend']}, fingerprint {store['fingerprint']})")
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    print(f"  digest cache         {hits} hits / {misses} misses "
          f"({hit_rate:.0%})")
    print(f"  store hits/misses    {cache.get('store_hits', 0)} / "
          f"{cache.get('store_misses', 0)}")
    print(f"  deferred digests     {cache.get('deferred', 0)}")
    print(f"  bytes digested       {cache.get('bytes_digested', 0):,}")
    print(f"  bytes inspected      {perf.get('bytes_inspected', 0):,}")


def print_telemetry(campaign) -> None:
    """The campaign-wide telemetry aggregate, human-readable."""
    agg = campaign.telemetry_stats()
    print("campaign telemetry")
    print(f"  snapshots merged     {agg['samples']}")
    print(f"  events emitted       {agg['bus']['emitted']} "
          f"({agg['bus']['dropped']} dropped)")
    for kind in sorted(agg["counts_by_kind"]):
        print(f"    {kind:<20} {agg['counts_by_kind'][kind]}")
    metrics = agg["metrics"]
    for name in ("cryptodrop_indicator_hits_total",
                 "cryptodrop_union_boosts_total",
                 "cryptodrop_suspensions_total"):
        metric = metrics.get(name)
        if not metric:
            continue
        total = sum(value for _labels, value in metric["state"])
        print(f"  {name:<38} {total:g}")
    lost = metrics.get("cryptodrop_detection_files_lost")
    if lost:
        for _labels, series in lost["state"]:
            if series["count"]:
                print(f"  files lost at suspension: {series['count']:g} "
                      f"detections, mean "
                      f"{series['sum'] / series['count']:.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the complete 492-sample cohort")
    parser.add_argument("--perf", action="store_true",
                        help="also print aggregated engine perf counters")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable per-sample telemetry and print the "
                             "campaign-wide aggregate")
    args = parser.parse_args()
    scale = FULL if args.full else SMALL

    config = CryptoDropConfig(telemetry_enabled=True) \
        if args.telemetry else None
    print(f"running campaign at scale: {scale.describe()}")
    campaign = campaign_at_scale(scale, config=config)

    print()
    print(run_table1(scale, campaign=campaign).render())
    print()
    print(run_fig3(scale, campaign=campaign).render())
    print()
    print(run_fig5(scale, campaign=campaign).render())
    print()
    print(run_union_effect(scale, campaign=campaign).render())
    if args.perf:
        print()
        print_perf(campaign)
    if args.telemetry:
        print()
        print_telemetry(campaign)


if __name__ == "__main__":
    main()
