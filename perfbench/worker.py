"""One benchmark process: set up one workload, then run rounds of it.

Started by run.py in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH.  Prints one JSON object as its last line.

    --mode setup   import the library, build the inputs, report setup_s
    --mode run     the same, then run whole rounds for --seconds, taking
                   set-up samples in fresh interpreters around them; with
                   --trace 1, half the time runs untraced and then one
                   traced set-up and one traced round give the per-layer
                   numbers

The host's speed drifts by up to 2x in spells of 5 to 30 s, which runs
of 40 s do not average away.  So while an untraced round runs, a fixed
probe computation is timed every PROBE_PERIOD_S from a SIGALRM handler.
Its trimmed mean time over the round measures how fast the host ran
during that round, and the round's time is also reported rescaled to the
speed at which the probe takes PROBE_REF_S.  Set-up is timed and
rescaled the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Share of the run that set-up samples taken between rounds may use.
BETWEEN_SHARE = 0.05
# Speed probe: how often it runs while a round or set-up is timed, and its
# time at the reference speed (about its median on the 2-vCPU machine of
# the README).
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.0015


def probe() -> dict:
    """A fixed piece of Fraction and dict work, like the library's own."""
    acc = {}
    for i in range(1, 200):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 5 + 1) * Fraction(3, i % 4 + 1)
    return acc


class SpeedProbe:
    """Within ``with``, times probe() every PROBE_PERIOD_S of wall time.
    ``inside_s`` is the probe time spent inside the block, to be taken
    off the block's wall time.  ``mean_s`` is the mean probe time without
    its slowest tenth, where a probe was descheduled, which would make the
    mean swing with a few samples; one more sample is taken on leaving, so
    there is always one."""

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        probe()
        self.times.append(time.perf_counter() - start)

    def __enter__(self):
        self.times: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.inside_s = sum(self.times)
        self._tick()
        kept = sorted(self.times)[:max(1, len(self.times) * 9 // 10)]
        self.mean_s = statistics.fmean(kept)
        return False

    def rescale(self, wall: float) -> float:
        """The block's wall time ``wall``, less the probe's share, at the
        reference speed."""
        return (wall - self.inside_s) * PROBE_REF_S / self.mean_s


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def round(self, ops) -> float:
        """Run one round; returns its wall time."""
        start = time.perf_counter()
        for label, op in ops:
            self.attempted += 1
            try:
                problem = op()
            except Exception as err:  # an operation that raises has failed
                problem = "raised %s: %s" % (type(err).__name__, err)
            else:
                if problem is not None:
                    self.wrong += 1
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append("%s: %s" % (label, problem))
        return time.perf_counter() - start


def timed_rounds(run_round, state, tally: Tally, seconds: float, between) -> dict:
    """Whole rounds until the next one would end past ``seconds``; at
    least one.  ``between`` runs between rounds, outside their times.
    Returns, per round, its wall time without the probe's share, the mean
    probe time, and the wall time rescaled to the reference speed."""
    out = {"round_s": [], "probe_s": [], "round_ref_s": []}
    gross: list[float] = []
    begin = time.perf_counter()
    while True:
        with SpeedProbe() as speed:
            wall = tally.round(run_round(state))
        gross.append(wall)
        out["round_s"].append(wall - speed.inside_s)
        out["probe_s"].append(speed.mean_s)
        out["round_ref_s"].append(speed.rescale(wall))
        if time.perf_counter() - begin + statistics.median(gross) > seconds:
            return out
        between()


def setup_sample(args) -> dict:
    """setup_s and setup_wall_s of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--mode", "setup", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    args = ap.parse_args(argv)

    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        import courant_vpa
        import workloads

        if not os.path.abspath(courant_vpa.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
            print("courant_vpa imported from %s, not this checkout" % courant_vpa.__file__,
                  file=sys.stderr)
            return 2
        setup, run_round = workloads.WORKLOADS[args.workload]
        state = setup(args.seed, args.size)
        wall = time.perf_counter() - t0
    out = {"setup_s": speed.rescale(wall), "setup_wall_s": wall - speed.inside_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    # This machine's speed drifts over tens of seconds, so set-up is also
    # sampled in fresh interpreters before, between and after the rounds,
    # and the median of all samples spans the run.  Samples between rounds
    # are taken only where they are cheap enough not to cost a round.
    samples = out["setup_samples_s"] = [out["setup_s"]]
    walls = out["setup_wall_samples_s"] = [out["setup_wall_s"]]

    def sample(always: bool = False):
        if not args.trace and (always or len(walls) * out["setup_wall_s"] <= BETWEEN_SHARE * args.seconds):
            one = setup_sample(args)
            samples.append(one["setup_s"])
            walls.append(one["setup_wall_s"])

    sample(always=True)
    tally = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    out.update(timed_rounds(run_round, state, tally, budget, sample))
    sample(always=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(also=[workloads])
        try:
            traced_state = setup(args.seed, args.size)
            out["traced_round_s"] = tally.round(run_round(traced_state))
            del traced_state
        finally:
            tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
        os.makedirs(workloads.OUT, exist_ok=True)
        tracer.write(os.path.join(workloads.OUT, "spans-%s.txt" % args.workload))
    out.update(attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
               problems=tally.problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
