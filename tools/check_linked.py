#!/usr/bin/env python3
"""Link-reachability gate: src/ is what the cybok CLI links.

The shipped `cybok` binary (examples/cybok.cpp) holds every CLI command
and the whole serve layer. Code it never links serves no user. This gate
reads the link map of a `--gc-sections` link of that binary and fails when

  * a src/ object is never pulled into the link, or
  * the linker discards an out-of-line `cybok::` function defined in a
    src/ object (a global, non-COMDAT text symbol),

unless tools/linked_allowlist.json names it with a reason. Inline
functions and template instances (COMDAT groups, weak symbols) and
internal-linkage helpers (local symbols) are skipped: their copies live
wherever they are used, so a discarded copy says nothing about reach.
Allowlist entries that no longer match anything also fail the gate, so
the list only ever shrinks as code is deleted or gains a caller; with
--base-allowlist, any entry not present in that earlier version fails.

Function entries name the qualified function without its parameter list
(`cybok::kb::Corpus::erase`) and cover every overload.

Build the link map at -O0, so that inlining cannot hide a call:

    cmake -S . -B build/linkcheck -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections -Wl,-Map=$PWD/build/linkcheck/cybok.map"
    cmake --build build/linkcheck --target example_cybok
    tools/check_linked.py --map build/linkcheck/cybok.map --libs build/linkcheck/src

Exit status 0 when every unreached object and function is allowlisted
and every allowlist entry is still needed, 1 otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys

LIB_MEMBER = re.compile(r"libcybok_(\w+)\.a\(([^)]+\.cpp\.o)\)$")
SECTION_ONLY = re.compile(r"^ (\S+)$")
SECTION_FULL = re.compile(r"^ (\S+)\s+0x[0-9a-f]+\s+0x[0-9a-f]+\s+(.+)$")
CONTINUATION = re.compile(r"^\s+0x[0-9a-f]+\s+0x[0-9a-f]+\s+(.+)$")


def src_path(module, member):
    """libcybok_kb.a(hierarchy.cpp.o) -> kb/hierarchy.cpp"""
    return f"{module}/{member[:-len('.o')]}"


def parse_map(path):
    """Return (linked src objects, [(src object, discarded .text section)])."""
    linked = set()
    discarded = []
    block = None
    pending = None
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("Archive member included"):
                block = "members"
                continue
            if line.startswith("Discarded input sections"):
                block = "discarded"
                continue
            if line.startswith("Memory Configuration"):
                break
            if block == "members":
                m = LIB_MEMBER.search(line.split()[0]) if line and not line[0].isspace() else None
                if m:
                    linked.add(src_path(m.group(1), m.group(2)))
            elif block == "discarded":
                section, origin = None, None
                m = SECTION_FULL.match(line)
                if m:
                    section, origin = m.group(1), m.group(2)
                elif pending is not None and (c := CONTINUATION.match(line)):
                    section, origin = pending, c.group(1)
                pending = None
                if section is None:
                    s = SECTION_ONLY.match(line)
                    pending = s.group(1) if s else None
                    continue
                lm = LIB_MEMBER.search(origin.strip())
                if lm and section.startswith(".text."):
                    discarded.append((src_path(lm.group(1), lm.group(2)), section[len(".text."):]))
    return linked, discarded


def archive_symbols(libs_dir):
    """Map src object -> {symbol: nm type letter}, for every libcybok_*.a."""
    objects = {}
    for name in sorted(os.listdir(libs_dir)):
        m = re.fullmatch(r"libcybok_(\w+)\.a", name)
        if not m:
            continue
        out = subprocess.run(["nm", "-A", "--defined-only", os.path.join(libs_dir, name)],
                             check=True, capture_output=True, text=True).stdout
        for line in out.splitlines():
            # <archive>:<member>:<address> <type> <symbol>
            where, _, rest = line.rpartition(":")
            member = where.rsplit(":", 1)[-1]
            parts = rest.split()
            if len(parts) != 3 or not member.endswith(".cpp.o"):
                continue
            syms = objects.setdefault(src_path(m.group(1), member), {})
            syms[parts[2]] = parts[1]
        # Members that define nothing still count as objects.
        members = subprocess.run(["ar", "t", os.path.join(libs_dir, name)], check=True,
                                 capture_output=True, text=True).stdout.split()
        for member in members:
            if member.endswith(".cpp.o"):
                objects.setdefault(src_path(m.group(1), member), {})
    return objects


def demangle(symbols):
    if not symbols:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(symbols, out))


def bare_name(signature):
    """Strip the parameter list (and ABI tags) from a demangled signature."""
    start = 0
    op = signature.find("operator()")
    if op >= 0:
        start = op + len("operator()")
    paren = signature.find("(", start)
    name = signature if paren < 0 else signature[:paren]
    return re.sub(r"\[abi:\w+\]", "", name)


def load_allowlist(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    objects = {e["object"]: e.get("why", "") for e in doc.get("objects", [])}
    functions = {e["function"]: e.get("why", "") for e in doc.get("functions", [])}
    return objects, functions


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--map", required=True, help="link map of the gc-sections cybok link")
    ap.add_argument("--libs", required=True, help="directory holding the libcybok_*.a archives")
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--allowlist", default=os.path.join(here, "linked_allowlist.json"))
    ap.add_argument("--base-allowlist",
                    help="an earlier allowlist; entries absent from it fail the gate")
    ap.add_argument("--list", action="store_true",
                    help="print every unreached object and function, allowlisted or not")
    args = ap.parse_args(argv)

    linked, discarded = parse_map(args.map)
    objects = archive_symbols(args.libs)
    allowed_objects, allowed_functions = load_allowlist(args.allowlist)
    failures = []

    for entry, why in list(allowed_objects.items()) + list(allowed_functions.items()):
        if not why.strip():
            failures.append(f"allowlist entry {entry}: no reason given")

    unlinked = sorted(set(objects) - linked)
    if not objects:
        failures.append(f"no libcybok_*.a archives under {args.libs}")
    if not linked:
        failures.append(f"{args.map}: no src/ archive members in the link map")

    # Out-of-line functions only: global text symbols. Weak (W) symbols
    # are COMDAT inline/template copies; lowercase t is internal linkage.
    dropped = sorted({sym for obj, sym in discarded if objects.get(obj, {}).get(sym) == "T"})
    names = demangle(dropped)
    functions = {}
    for sym in dropped:
        sig = names[sym]
        if sig.startswith("cybok::"):
            functions.setdefault(bare_name(sig), []).append(sig)

    print(f"cybok link: {len(linked)} of {len(objects)} src/ objects linked; "
          f"{sum(len(v) for v in functions.values())} out-of-line cybok:: functions "
          f"discarded ({len(functions)} names)")

    for obj in unlinked:
        if args.list:
            print(f"  unlinked object src/{obj}")
        if obj not in allowed_objects:
            failures.append(f"src/{obj}: never linked into cybok and not allowlisted")
    for name, sigs in sorted(functions.items()):
        if args.list:
            for sig in sorted(sigs):
                print(f"  discarded {sig}")
        if name not in allowed_functions:
            for sig in sorted(sigs):
                failures.append(f"{sig}: discarded from cybok and not allowlisted")

    for obj in sorted(set(allowed_objects) - set(unlinked)):
        failures.append(f"allowlist object {obj} is linked (or gone): remove the entry")
    for name in sorted(set(allowed_functions) - set(functions)):
        failures.append(f"allowlist function {name} is linked (or gone): remove the entry")

    if args.base_allowlist:
        base_objects, base_functions = load_allowlist(args.base_allowlist)
        for obj in sorted(set(allowed_objects) - set(base_objects)):
            failures.append(f"allowlist object {obj} is new: the list may only shrink")
        for name in sorted(set(allowed_functions) - set(base_functions)):
            failures.append(f"allowlist function {name} is new: the list may only shrink")

    for f in failures:
        print(f"FAIL {f}")
    if failures:
        return 1
    print(f"ok: {len(allowed_objects)} allowlisted objects, "
          f"{len(allowed_functions)} allowlisted functions, all still needed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
