#!/usr/bin/env python3
"""Symbolize the SIGPROF sampler's output (bench/prof/sigprof.c).

Usage: python3 bench/prof/symbolize.py [--top N] PREFIX...

Each PREFIX names one process's files, PREFIX.pcs and PREFIX.maps (for
example /tmp/prof/prof.12345). Every sample's PC is mapped through the
saved maps to a file offset, then to a virtual address in that ELF file
(through its program headers, `readelf -lW`) and to the enclosing symbol
(`nm`, or `nm -D` for a stripped library). Prints the share of samples
per symbol, summed over all the prefixes, and per mapped file.
"""

import bisect
import collections
import struct
import subprocess
import sys


def read_maps(path):
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 5:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip() if len(parts) > 5 else ""
            maps.append((lo, hi, int(parts[2], 16), parts[1], name))
    maps.sort()
    return maps


def read_pcs(path):
    with open(path, "rb") as f:
        data = f.read()
    (count,) = struct.unpack_from("<Q", data, 0)
    count = min(count, len(data) // 8 - 1)
    return struct.unpack_from("<%dQ" % count, data, 8)


class Elf:
    """Symbols and LOAD segments of one file, for offset -> symbol."""

    def __init__(self, path):
        self.segments = []  # (offset, filesz, vaddr)
        try:
            out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
        except OSError:
            out = ""
        for line in out.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                self.segments.append((int(f[1], 16), int(f[4], 16), int(f[2], 16)))
        syms = {}
        for flags in (["-n"], ["-n", "-D"]):
            try:
                out = subprocess.run(["nm"] + flags + [path], capture_output=True, text=True).stdout
            except OSError:
                out = ""
            for line in out.splitlines():
                f = line.split()
                if len(f) == 3 and f[1] in "tTwWiI":
                    syms.setdefault(int(f[0], 16), f[2])
            if syms:
                break
        self.addrs = sorted(syms)
        self.names = [syms[a] for a in self.addrs]

    def vaddr(self, off):
        for seg_off, size, vaddr in self.segments:
            if seg_off <= off < seg_off + size:
                return off - seg_off + vaddr
        return off

    def symbol(self, off):
        i = bisect.bisect_right(self.addrs, self.vaddr(off)) - 1
        return self.names[i] if i >= 0 else None


def main(argv):
    top = 40
    if argv[:1] == ["--top"]:
        top, argv = int(argv[1]), argv[2:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    elves = {}
    by_sym = collections.Counter()
    by_file = collections.Counter()
    total = 0
    for prefix in argv:
        maps = read_maps(prefix + ".maps")
        starts = [m[0] for m in maps]
        for pc in read_pcs(prefix + ".pcs"):
            total += 1
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                by_sym["?"] += 1
                by_file["?"] += 1
                continue
            lo, _, off, _, name = maps[i]
            short = name.rsplit("/", 1)[-1] or "[anon]"
            by_file[short] += 1
            if not name.startswith("/"):
                by_sym[short] += 1
                continue
            elf = elves.get(name) or elves.setdefault(name, Elf(name))
            by_sym[(elf.symbol(pc - lo + off) or "?") + " (" + short + ")"] += 1
    print("%d samples from %d process(es)" % (total, len(argv)))
    print("\nby file:")
    for name, n in by_file.most_common():
        print("  %6.2f%%  %7d  %s" % (100.0 * n / max(total, 1), n, name))
    print("\nby symbol:")
    for name, n in by_sym.most_common(top):
        print("  %6.2f%%  %7d  %s" % (100.0 * n / max(total, 1), n, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
