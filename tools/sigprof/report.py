#!/usr/bin/env python3
"""Resolve the samples sigprof.so wrote into two tables.

    python3 report.py [--top N] [--min-samples N] [--require NAME] FILE...

Leaves: the innermost function at each sampled address, inlined or not.
Inline chains: every function on the address's inline chain (addr2line -i),
counted once a sample -- so a kernel loop whose callees were all inlined into
it is charged with their samples too. Each FILE is one process's samples,
resolved against that process's own memory map; the tables sum them.

--min-samples and --require make it a check: exit 1 unless the files hold
at least N samples and NAME (a substring) names a function on some chain.
"""
import argparse
import bisect
import collections
import re
import signal
import subprocess
import sys

ET_EXEC = 2
HASH = re.compile(r"::h[0-9a-f]{16}$")


def parse(path):
    """The file's mappings as (start, end, offset, object) sorted by start,
    its sampled addresses, and the samples it dropped."""
    maps, pcs, dropped = [], [], 0
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif kind == "dropped":
                dropped += int(rest)
            elif kind == "map":
                fields = rest.split(maxsplit=5)
                if len(fields) == 6 and fields[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
    maps.sort()
    return maps, pcs, dropped


def load_bias(maps, obj):
    """What to subtract from a runtime address in `obj` to get the address
    addr2line reads: the object's load base, or 0 for a fixed-address
    executable."""
    try:
        with open(obj, "rb") as f:
            header = f.read(18)
        if len(header) == 18 and int.from_bytes(header[16:18], "little") == ET_EXEC:
            return 0
    except OSError:
        pass
    return min(lo - off for lo, _, off, o in maps if o == obj)


def resolve(obj, addrs):
    """addr -> inline chain [innermost, ..., outermost] of function names."""
    cmd = ["addr2line", "-a", "-f", "-i", "-C", "-e", obj]
    text = "\n".join("%x" % a for a in addrs) + "\n"
    out = subprocess.run(cmd, input=text, capture_output=True, text=True).stdout
    chains, current, lines = {}, None, out.splitlines()
    # blocks of: 0xADDR, then (function, file:line) pairs
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            chains[current] = []
            i += 1
            continue
        name = HASH.sub("", lines[i])
        if current is not None and name != "??":
            chains[current].append(name)
        i += 2
    return chains


def tally(path, leaves, chains_hit):
    maps, pcs, dropped = parse(path)
    starts = [m[0] for m in maps]
    by_obj = collections.defaultdict(collections.Counter)
    unmapped = 0
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i >= 0 and pc < maps[i][1]:
            by_obj[maps[i][3]][pc] += 1
        else:
            unmapped += 1
    for obj, counts in by_obj.items():
        bias = load_bias(maps, obj)
        chains = resolve(obj, [pc - bias for pc in counts])
        short = obj.rsplit("/", 1)[-1]
        for pc, n in counts.items():
            chain = chains.get(pc - bias) or ["?? (%s)" % short]
            leaves[chain[0]] += n
            for name in set(chain):
                chains_hit[name] += n
    leaves["?? (unmapped)"] += unmapped
    if not leaves["?? (unmapped)"]:
        del leaves["?? (unmapped)"]
    return len(pcs), dropped


def table(title, counts, total, top):
    print(title)
    for name, n in counts.most_common(top):
        print("  %6.2f%%  %8d  %s" % (100.0 * n / max(total, 1), n, name))


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--min-samples", type=int, default=0)
    ap.add_argument("--require", action="append", default=[])
    args = ap.parse_args()
    leaves, chains_hit = collections.Counter(), collections.Counter()
    total = dropped = 0
    for path in args.files:
        n, d = tally(path, leaves, chains_hit)
        total, dropped = total + n, dropped + d
    print("samples %d (dropped %d) from %d file(s)" % (total, dropped, len(args.files)))
    table("leaves:", leaves, total, args.top)
    table("inline chains:", chains_hit, total, args.top)
    failed = []
    if total < args.min_samples:
        failed.append("%d samples, fewer than %d" % (total, args.min_samples))
    for want in args.require:
        if not any(want in name for name in chains_hit):
            failed.append("no function matching %r was sampled" % want)
    for why in failed:
        print("sigprof: " + why, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
