#!/usr/bin/env python3
"""Check the shape of the simulator's stepping loops in a build tree.

Usage:

    kernel_shape.py --build DIR

The stepping loops (functional warming, warm-as-detailed and detailed
simulation) are written so that every cache, TLB and predictor access
inlines into them. A stray call per memory access, or a hardware
divide, shows up as a slower S_FW / S_D long before it shows in a
test. This script disassembles the loops' objects in a Release build
(`objdump -dr -C`) and holds each loop to a table of the calls it may
make: anything else, and any divide instruction, fails the check,
naming the function and the instruction.

A call's target is read from its relocation, or from the disassembly
when the object resolves it itself, so the objects are checked before
linking. Jumps into `.text.*` sections (a function's cold split) are
not calls. The `[clone .cold]` parts of a function are not checked:
they hold only its unwinding and error paths.

Exits 0 when every loop keeps its shape, 1 otherwise, 2 on usage or
tool errors.
"""

import argparse
import os
import re
import subprocess
import sys

OBJECTS = "src/CMakeFiles/smarts.dir"

# The TLB's rarely-taken miss and reorder paths stay out of line.
TLB = ["smarts::mem::Tlb::moveToFront(", "smarts::mem::Tlb::erase("]

# (object under OBJECTS, function name prefix, allowed call-target
# prefixes). A function named here must exist in its object.
TABLE = [
    ("core/session.cc.o", "smarts::core::SimSession::fastForward(", []),
    ("core/session.cc.o", "smarts::core::SimSession::warmAsDetailed(", []),
    ("core/session.cc.o", "smarts::core::SimSession::detailedRun(", []),
    # The interpreter side of a split capture calls out only when its
    # ring block fills.
    ("core/capture.cc.o", "smarts::core::SplitCapture::fastForward(",
     ["smarts::core::SplitCapture::nextBlock("]),
    ("core/capture.cc.o", "smarts::core::SplitCapture::warmAsDetailed(",
     ["smarts::core::SplitCapture::nextBlock("]),
    ("core/multi_session.cc.o", "smarts::core::MultiSession::fastForward(",
     TLB),
    ("core/multi_session.cc.o",
     "smarts::core::MultiSession::warmAsDetailed(", TLB),
    # detailedRun grows its per-config segment vector once per call.
    ("core/multi_session.cc.o", "smarts::core::MultiSession::detailedRun(",
     TLB + ["std::vector<smarts::core::Segment,",
            "void std::vector<smarts::core::Segment,",
            "operator new(", "operator delete(",
            "std::__throw_length_error("]),
    ("mp/mix_session.cc.o", "smarts::mp::MixSession::fastForward(", TLB),
    ("mp/mix_session.cc.o", "smarts::mp::MixSession::warmAsDetailed(", TLB),
    ("mp/mix_session.cc.o", "smarts::mp::MixSession::detailedRun(",
     TLB + ["std::vector<smarts::mp::MixLaneSegment,",
            "void std::vector<smarts::mp::MixLaneSegment,",
            "operator new(", "operator delete(",
            "std::__throw_length_error("]),
]

FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSTRUCTION = re.compile(r"^\s+([0-9a-f]+):\s+(\S+)\s*(.*)$")
RELOCATION = re.compile(r"^\s+[0-9a-f]+: R_\S+\s+(.*?)(?:[-+]0x[0-9a-f]+)?$")
LOCAL_TARGET = re.compile(r"<(.*?)(?:\+0x[0-9a-f]+)?>\s*$")
DIVIDE = re.compile(r"^i?div")


def disassemble(path):
    """{function name: [(address, mnemonic, operands, call target)]}."""
    out = subprocess.run(
        ["objdump", "-dr", "-C", "--no-show-raw-insn", path],
        check=True, capture_output=True, text=True).stdout
    functions = {}
    body = None
    for line in out.splitlines():
        m = FUNCTION.match(line)
        if m:
            body = functions.setdefault(m.group(1), [])
            continue
        if body is None:
            continue
        m = RELOCATION.match(line)
        if m and body:
            address, mnemonic, operands, _ = body[-1]
            body[-1] = (address, mnemonic, operands, m.group(1))
            continue
        m = INSTRUCTION.match(line)
        if m:
            body.append((m.group(1), m.group(2), m.group(3), None))
    return functions


def violations(function, body, allowed):
    """Each call or divide in @p body the table does not allow."""
    found = []
    for address, mnemonic, operands, reloc in body:
        where = "%s+0x%s: %s %s" % (function, address, mnemonic, operands)
        if DIVIDE.match(mnemonic):
            found.append("divide at " + where)
            continue
        is_call = mnemonic.startswith("call")
        if not is_call and not mnemonic.startswith("jmp"):
            continue
        target = reloc
        if target is None:
            if not is_call:
                continue  # a jump within the function.
            m = LOCAL_TARGET.search(operands)
            target = m.group(1) if m else operands
        if target.startswith(".text") and not is_call:
            continue  # into the function's cold split.
        if not any(target.startswith(prefix) for prefix in allowed):
            found.append("call to %s at %s" % (target, where))
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True,
                        help="the CMake build tree (a Release build)")
    args = parser.parse_args()

    failures = []
    listings = {}
    for obj, name, allowed in TABLE:
        path = os.path.join(args.build, OBJECTS, obj)
        if obj not in listings:
            if not os.path.isfile(path):
                print("kernel_shape: no object %s" % path, file=sys.stderr)
                return 2
            try:
                listings[obj] = disassemble(path)
            except (OSError, subprocess.CalledProcessError) as error:
                print("kernel_shape: objdump failed on %s: %s"
                      % (path, error), file=sys.stderr)
                return 2
        matches = [f for f in listings[obj]
                   if f.startswith(name) and "[clone" not in f]
        if not matches:
            failures.append("%s: no function %s..." % (obj, name))
        for function in matches:
            problems = violations(function, listings[obj][function],
                                  allowed)
            failures.extend("%s: %s" % (obj, p) for p in problems)
            print("%-4s %s" % ("FAIL" if problems else "ok", function))
    for failure in failures:
        print("kernel_shape: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
