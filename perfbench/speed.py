"""Host-speed sampling with the program paused, to rescale timings.

On a shared host a CPU's speed drifts by tens of percent within seconds,
and the same operation can take 30% longer from one minute to the next.
So the program runs in a child process group of its own.  Every PERIOD_S
the benchmark stops that group with SIGSTOP, times a fixed kernel of
small NumPy and float work (about 0.25 ms), and lets the group go on with
SIGCONT.  The kernel therefore reads the host's speed while none of the
program's threads or processes run, however many cores the program keeps
busy.  The vCPUs of a shared host slow down unevenly, so the kernel runs
on each CPU that the child's threads ran on since the last pause, and
their times are weighted by how long the threads ran there.  An
interval's time with the pauses taken out, multiplied by REF_KERNEL_S
over the mean kernel time within it, is the time it would take at the
reference speed.  On a 2-vCPU Xeon VM, ten neuron operations in fresh
processes spread 17% in host time (interquartile range over median), 8%
rescaled by a kernel on whichever CPU was free, and 6% with the kernel on
the program's own CPU.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import statistics
import sys
import time
import traceback

import numpy as np

REF_KERNEL_S = 2.5e-4  # the kernel's time on an idle vCPU of the reference host
PERIOD_S = 0.02

_ARRAY = np.arange(16.0)


def kernel():
    s = 0.0
    for i in range(150):
        b = _ARRAY * 1.5 + i
        s += float(b[3]) * 0.5 + math.sin(i)
    return s


class SpeedSamples:
    """Pauses of a watched process group: (start, pause length, kernel time)."""

    def __init__(self):
        self.samples = []

    def factor(self, t0, t1):
        """Reference-speed seconds per host second over [t0, t1)."""
        near = ([k for s, _, k in self.samples if t0 <= s < t1]
                or [k for _, _, k in self.samples])
        return REF_KERNEL_S / statistics.fmean(near)

    def busy(self, t0, t1):
        """Host seconds the group spent paused within [t0, t1)."""
        return sum(p for s, p, _ in self.samples if t0 <= s < t1)

    def rescale(self, t0, t1):
        """Seconds [t0, t1) would take at reference speed, pauses removed."""
        return (t1 - t0 - self.busy(t0, t1)) * self.factor(t0, t1)


def _cpu_time(pid, seen):
    """{CPU: ns} that pid's threads ran since the last call, by the CPU
    each thread ran on last; seen holds each thread's total so far."""
    ran = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                ns = int(fh.read().split()[0])
            with open(f"/proc/{pid}/task/{tid}/stat") as fh:
                cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        except (OSError, ValueError, IndexError):  # the thread has ended
            continue
        if ns > seen.get(tid, 0):
            ran[cpu] = ran.get(cpu, 0) + ns - seen.get(tid, 0)
        seen[tid] = ns
    return ran


def _kernel_time(ran, cpus):
    """Kernel seconds on each CPU of ran, weighted by ran, or on every CPU
    of cpus alike when no thread ran; each after one warm-up run there."""
    weights = ran or dict.fromkeys(cpus, 1)
    total = 0.0
    for cpu, weight in weights.items():
        os.sched_setaffinity(0, {cpu})
        kernel()
        t0 = time.perf_counter()
        kernel()
        total += weight * (time.perf_counter() - t0)
    os.sched_setaffinity(0, cpus)
    return total / sum(weights.values())


def _watch(pid, fd, timeout=None):
    """Read fd to its end while pausing pid's group every PERIOD_S.

    Returns the bytes read, pid's wait status and the samples.  If this
    is interrupted or takes more than timeout seconds, the whole group is
    killed and pid is waited for.
    """
    speed, chunks, status, seen = SpeedSamples(), [], None, {}
    cpus = os.sched_getaffinity(0)
    deadline = None if timeout is None else time.perf_counter() + timeout
    try:
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError(f"process {pid} ran over {timeout} s")
            if select.select([fd], [], [], PERIOD_S)[0]:
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
                continue
            t0 = time.perf_counter()
            os.killpg(pid, signal.SIGSTOP)
            _, st = os.waitpid(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(st):  # it ended before it stopped
                status = st
                break
            k = _kernel_time(_cpu_time(pid, seen), cpus)
            os.killpg(pid, signal.SIGCONT)
            speed.samples.append((t0, time.perf_counter() - t0, k))
        while data := os.read(fd, 1 << 16):
            chunks.append(data)
        if status is None:
            status = os.waitpid(pid, 0)[1]
    except BaseException:
        if status is None:
            for sig in (signal.SIGKILL, signal.SIGCONT):
                try:
                    os.killpg(pid, sig)
                except ProcessLookupError:
                    pass
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(fd)
    return b"".join(chunks), status, speed


def _fork(child):
    """Fork a process group leader that runs child(write_fd), then exits."""
    r, w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            os.setpgid(0, 0)
            child(w)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    try:
        os.setpgid(pid, pid)
    except OSError:  # the child got there first, or has already exited
        pass
    return pid, r


def call_paused(fn):
    """fn() in a child process, paused for sampling; (result, samples)."""
    def child(w):
        payload = pickle.dumps(fn())
        with os.fdopen(w, "wb") as fh:
            fh.write(payload)

    data, status, speed = _watch(*_fork(child))
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"benchmark child ended with status {status}")
    return pickle.loads(data), speed


def run_paused(argv, cwd, timeout):
    """Run argv in cwd, paused for sampling; (stdout text, samples)."""
    def child(w):
        os.chdir(cwd)
        os.dup2(w, 1)
        os.execv(argv[0], argv)

    data, status, speed = _watch(*_fork(child), timeout)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{argv} ended with status {status}")
    return data.decode(), speed
