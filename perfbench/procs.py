"""Process-tree helpers over /proc: find, measure and reap descendants."""
from __future__ import annotations

import os
import signal
import threading
import time


def descendants(pid: int) -> list[int]:
    """Live descendant pids of ``pid``, from /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def wait_gone(pids: list[int], timeout: float) -> None:
    """Wait until every pid has exited; SIGKILL what is left after
    ``timeout`` and wait as long again."""
    for kill in (False, True):
        if kill:
            for p in filter(_alive, pids):
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + timeout
        while any(map(_alive, pids)):
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        else:
            return


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class TreeSampler:
    """Samples the summed RSS of a process and its descendants in a
    thread; remembers the peak and every pid it saw."""

    def __init__(self, pid: int, interval: float = 0.2) -> None:
        self.pid = pid
        self.interval = interval
        self.peak = 0
        self.seen: set[int] = set()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._done.is_set():
            pids = [self.pid, *descendants(self.pid)]
            self.seen.update(pids)
            self.peak = max(self.peak, sum(rss_bytes(p) for p in pids))
            self._done.wait(self.interval)

    def __enter__(self) -> "TreeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
