"""CPU time and peak memory of another process, read from ``/proc``."""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def parse_cpu_seconds(stat_line: str) -> float:
    """utime+stime of a process and of the children it has waited for,
    from the text of ``/proc/<pid>/stat``.

    The command name (field 2) may itself contain spaces and brackets, so
    fields are counted from the last ``)``."""
    fields = stat_line[stat_line.rindex(")") + 2 :].split()
    # fields[0] is field 3 (state); utime, stime, cutime, cstime are 14-17.
    return sum(int(v) for v in fields[11:15]) * _TICK_S


def parse_peak_rss_mb(status_text: str) -> float:
    """``VmHWM`` (peak resident set) in MB from ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line in the status text")


def cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as f:
        return parse_cpu_seconds(f.read())


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        return parse_peak_rss_mb(f.read())
