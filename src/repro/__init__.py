"""CryptoDrop reproduction.

A from-scratch Python implementation of *CryptoLock (and Drop It):
Stopping Ransomware Attacks on User Data* (Scaife, Carter, Traynor,
Butler — ICDCS 2016): the CryptoDrop data-centric ransomware
early-warning system, plus every substrate its evaluation needs — a
virtual Windows filesystem with a filter-driver stack, magic-number file
typing, sdhash-style similarity digests, a synthetic Govdocs-like
document corpus, behavioural simulators for all fourteen ransomware
families and thirty benign applications, comparison baselines, and a
harness that regenerates every table and figure in the paper.

Quickstart::

    from repro.corpus import generate
    from repro.ransomware import working_cohort
    from repro.sandbox import VirtualMachine, run_sample

    machine = VirtualMachine(generate(seed=1, n_files=500, n_dirs=50))
    machine.snapshot()
    sample = working_cohort()[0]
    result = run_sample(machine, sample)
    print(result.sample_name, "lost", result.files_lost, "files")
"""

from . import (analysis, baselines, benign, core, corpus, crypto,
               experiments, fs, magic, ransomware, sandbox, simhash,
               telemetry)
from .core import CryptoDropConfig, CryptoDropMonitor, Detection
from .telemetry import DetectionTimeline, TelemetrySession
from .entropy import (WeightedEntropyMean, corrected_entropy,
                      entropy_weight, shannon_entropy, windowed_entropy)
from .fs import DOCUMENTS, VirtualFileSystem, WinPath
from .recovery import RecoveryReport, recover_from_shadow
from .trace import TraceRecord, TraceRecorder, replay_trace
from .sandbox import VirtualMachine, run_benign, run_campaign, run_sample

__version__ = "1.0.0"

__all__ = [
    "CryptoDropConfig", "CryptoDropMonitor", "DOCUMENTS", "Detection",
    "DetectionTimeline", "TelemetrySession",
    "VirtualFileSystem", "VirtualMachine", "WeightedEntropyMean",
    "WinPath", "__version__", "analysis", "baselines", "benign", "core",
    "corrected_entropy", "corpus", "crypto", "entropy_weight",
    "experiments", "fs", "magic", "ransomware", "run_benign",
    "RecoveryReport", "TraceRecord", "TraceRecorder", "recover_from_shadow", "replay_trace",
    "run_campaign", "run_sample", "sandbox", "shannon_entropy", "simhash",
    "telemetry", "windowed_entropy",
]
