"""Run one command and print its wall time, exit code, peak RSS and host-speed
probes as JSON.

    python3 launch.py TIMEOUT_S PROGRAM [ARG ...]

Linux reports a child's `ru_maxrss` as at least the resident size of the
process that spawned it, because that size is recorded when the child execs.
The benchmark process holds its inputs and grows while it runs, so it starts
each CLI run through this small launcher: the CLI's reported peak is then its
own.

Every PAUSE_EVERY_S the launcher stops the child, times one `probe` (see
`HostSpeed` in `run.py`) on the CPU the child runs on, and lets it continue;
the stopped time is left out of the reported wall time. A long run thus
carries samples of the host's speed from throughout the run, not only from
its ends. The child's standard output is discarded (the CLI writes data
through `--out`); its standard error is this process's. A child still running
after TIMEOUT_S seconds is killed.
"""

import json
import os
import re
import signal
import sys
import time

PAUSE_EVERY_S = 0.25
PROBE_ROUNDS = 5
PROBE_DOCUMENT = json.dumps({"objectives": "keep a safe distance in heavy rain", "actions": [
    {"type": "HmiPrompt", "parameters": {"text": "slow down ahead", "level": 3},
     "rationale": "wet road and dense traffic"}] * 3})
PROBE_SPLIT = re.compile(r"[^0-9a-z]+")


class _ProbeItem:
    __slots__ = ("token", "size")

    def __init__(self, token: str, size: int):
        self.token = token
        self.size = size


def probe() -> float:
    """Milliseconds of a fixed loop of the kind of work the package does
    (JSON, regex tokenizing, small objects, dict counting) sharing no code
    with it: the median of three runs, the first of which warms the caches."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            document = json.loads(PROBE_DOCUMENT)
            tokens = [t for t in PROBE_SPLIT.split(json.dumps(document).casefold()) if t]
            counts: dict[str, int] = {}
            for item in [_ProbeItem(token, len(token)) for token in tokens]:
                counts[item.token] = counts.get(item.token, 0) + item.size
            tuple(sorted(counts.items()))
        runs.append((time.perf_counter() - start) * 1e3)
    return sorted(runs)[1]


def main() -> None:
    timeout = float(sys.argv[1])
    argv = sys.argv[2:]
    probes = []
    paused = 0.0
    # SIGCHLD stays pending while blocked, so sigtimedwait wakes this process
    # the moment the child exits instead of at the end of the interval.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGCHLD})
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, setsigmask=(),
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    next_pause = start + PAUSE_EVERY_S
    while True:
        # SIGCHLD also comes when the child stops or continues: wake, check
        # for an exit, and keep waiting until the next pause is due.
        signal.sigtimedwait({signal.SIGCHLD}, max(0.0, next_pause - time.perf_counter()))
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.perf_counter() - start > timeout:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            break
        if time.perf_counter() < next_pause:
            continue
        stop = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        _, status, usage = os.wait4(pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            break
        probes.append(probe())
        os.kill(pid, signal.SIGCONT)
        paused += time.perf_counter() - stop
        next_pause = time.perf_counter() + PAUSE_EVERY_S
    wall = time.perf_counter() - start - paused
    print(json.dumps({"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status),
                      "maxrss_kb": usage.ru_maxrss, "probes_ms": probes}))


if __name__ == "__main__":
    main()
