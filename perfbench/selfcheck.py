"""Seconds-long self-check of the benchmark at tiny sizes.

Runs one round of every workload untraced and traced, with all of its
correctness checks, and requires zero failed calls, passing checks and
the full metric set of each mode. Exits 0 when everything holds:

    python3 perfbench/selfcheck.py
"""

import sys

import run
from tracing import DERIVED_METRICS, SPAN_METRICS

TINY = run.Sizes(
    duration_s=1.0,
    train_blocks=2,
    train_channels=16,
    batch_size=2,
    seq_len=40,
    train_utterances=2,
    train_steps=20,
    checkpoint_interval=10,
    enhance_blocks=3,
    enhance_channels=32,
    enhance_utterances=1,
    evaluate_utterances=1,
)

END_TO_END = {"audio_s_per_s", "peak_rss_mb", "setup_s"}
PER_LAYER = set(SPAN_METRICS) | set(DERIVED_METRICS)


def main() -> int:
    bad = 0
    for name in run.WORKLOAD_CLASSES:
        for trace in (False, True):
            result = run.run_workload(name, seed=0, seconds=0, trace=trace, sizes=TINY)
            expected = PER_LAYER if trace else END_TO_END
            ok = result["correct"] and result["failed"] == 0 and set(result["metrics"]) == expected
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
