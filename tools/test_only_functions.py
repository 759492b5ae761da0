#!/usr/bin/env python3
"""List the src/ functions that no program reaches: test-only and dead code.

The *system* is every executable the repository ships except the GTest
suites and `micro_kernels`: the paper benches, examples, tools, fuzz
harnesses, `gen_seed_corpus`, and `pf_bench` from benchmark/. A function
of libphotofourier.a that the linker keeps only in a test binary or in
`micro_kernels` is *test-only*; one it keeps in no binary at all is
*dead*. Either kind is a variant that ROADMAP's "same behaviour, least
code" rule wires into a program or deletes.

Static reachability needs an unoptimised build: inlining hides callers.
So the script configures the whole tree (fuzzers included) and a
standalone benchmark/ tree, both with

    -O0 -fno-inline -fkeep-inline-functions
    -ffunction-sections -fdata-sections -Wl,--gc-sections

(-fkeep-inline-functions emits every inline function of a header that
an object includes, so one that nothing calls is still seen.)

builds them, and runs `nm --defined-only` on the archive and on every
binary. benchmark/CMakeLists.txt accepts only Release, so that tree
keeps Release and takes the flags through CMAKE_CXX_FLAGS_RELEASE; no
file under benchmark/ is edited.

Findings are `photofourier::` functions (lambdas fold into the function
that defines them; standard-library instances are ignored), printed per
defining source file and sorted. A weak symbol (an inline or template
function) is emitted by every object that uses it, so it is filed under
the src/ header that declares it: the one header naming the function,
or, if several do, the one that also defines its class. A weak symbol
no header declares (a template local to a .cc) keeps the smallest
source path of the objects that emit it. Special members the compiler
generates are skipped by name: a constructor or destructor whose
parameters are empty or the class itself (`X()`, `X(X const&)`,
`X(X&&)`, `~X()`). tools/test_only_allowlist.txt names the
findings that stay, one demangled name per line followed by ` # ` and
the reason. The script exits 1 on a finding missing from the allowlist
and on an allowlist line that is no longer a finding, so the list
cannot go stale.

Usage:
    python3 tools/test_only_functions.py BUILD_DIR

BUILD_DIR holds the two build trees (`tree/` and `bench/`) and is
reused by later runs. ccache is used when it is on PATH.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "test_only_allowlist.txt"

FLAGS = ("-O0 -fno-inline -fkeep-inline-functions -ffunction-sections "
         "-fdata-sections")
LINK_FLAGS = "-Wl,--gc-sections"

# Binaries outside the system: the GTest suites and the kernel
# micro-benchmarks.
NON_SYSTEM = re.compile(r"^(test_.*|micro_kernels)$")

TEXT_TYPES = {"T", "t", "W"}

# Spellings that make demangled names unreadable.
ABBREVIATIONS = [
    ("std::__cxx11::basic_string<char, std::char_traits<char>, "
     "std::allocator<char> >", "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
    ("std::__cxx11::", "std::"),
]
# The default allocator argument: `std::vector<T, std::allocator<T> >`
# reads as `std::vector<T>`.
ALLOCATOR = re.compile(r", std::allocator<(?:[^<>]|<[^<>]*>)*> >")
# An innermost template argument list.
TEMPLATE_ARGS = re.compile(r"<[^<>]*>")


def run(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout[-6000:])
        sys.exit(f"test_only_functions: command failed: {' '.join(cmd)}")
    return proc.stdout


def build(out: Path) -> tuple[Path, Path]:
    launcher = (["-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"]
                if shutil.which("ccache") else [])
    tree, bench = out / "tree", out / "bench"
    run(["cmake", "-S", str(ROOT), "-B", str(tree),
         "-DCMAKE_BUILD_TYPE=Debug",
         f"-DCMAKE_CXX_FLAGS_DEBUG={FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
         "-DPHOTOFOURIER_BUILD_FUZZERS=ON", *launcher])
    jobs = str(os.cpu_count() or 1)
    run(["cmake", "--build", str(tree), "-j", jobs])
    run(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(bench),
         "-DCMAKE_BUILD_TYPE=Release",
         f"-DCMAKE_CXX_FLAGS_RELEASE={FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}", *launcher])
    run(["cmake", "--build", str(bench), "-j", jobs,
         "--target", "pf_bench"])
    return tree, bench


def executables(tree: Path, bench: Path) -> tuple[list[Path], list[Path]]:
    """(system, non-system) binaries of the two build trees."""
    found = [p for p in sorted(tree.iterdir())
             if p.is_file() and os.access(p, os.X_OK)
             and p.open("rb").read(4) == b"\x7fELF"]
    found.append(bench / "pf_bench")
    system = [p for p in found if not NON_SYSTEM.match(p.name)]
    others = [p for p in found if NON_SYSTEM.match(p.name)]
    return system, others


def text_symbols(binary: Path) -> set[str]:
    out = run(["nm", "--defined-only", str(binary)])
    syms = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            syms.add(parts[2])
    return syms


def library_symbols(archive: Path) -> tuple[dict[str, str], set[str]]:
    """(mangled text symbol -> the src/ file of the object defining it,
    the weak symbols among them)."""
    sources = {p.name: str(p.relative_to(ROOT))
               for p in (ROOT / "src").rglob("*.cc")}
    out = run(["nm", "--defined-only", "-A", str(archive)])
    where: dict[str, str] = {}
    weak: set[str] = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[1] not in TEXT_TYPES:
            continue
        member = parts[0].split(":")[1].removesuffix(".o")
        src = sources.get(member, member)
        if parts[1] == "W":
            weak.add(parts[2])
        # A weak (inline or template) symbol is defined in several
        # objects; keep the smallest path so reruns agree.
        if parts[2] not in where or src < where[parts[2]]:
            where[parts[2]] = src
    return where, weak


def declaring_header(fn: str, headers: dict[str, str]) -> str | None:
    """The src/ header declaring function `fn`: the only header naming
    it, else the only one of those that also defines its class."""
    qualified = fn.partition("(")[0]
    while TEMPLATE_ARGS.search(qualified):
        qualified = TEMPLATE_ARGS.sub("", qualified)
    scope, _, name = qualified.rpartition("::")
    call = re.compile(r"(?<![\w~])" + re.escape(name) + r"\s*\(")
    named = [h for h, text in headers.items() if call.search(text)]
    if len(named) > 1:
        owner = scope.rpartition("::")[2]
        defines = re.compile(r"\b(?:class|struct)\s+" + re.escape(owner) +
                             r"\b[^;]*?\{")
        named = [h for h in named if defines.search(headers[h])]
    return named[0] if len(named) == 1 else None


def demangle(names: list[str]) -> list[str]:
    proc = subprocess.run(["c++filt"], input="\n".join(names),
                          stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout.splitlines()


OPEN, CLOSE = "<([{", ">)]}"
OPERATOR_CHARS = set("<>=!+-*/%&|^~,")
QUALIFIERS = (" const", " volatile", " &&", " &")


def own_function(demangled: str) -> str | None:
    """The photofourier:: function a symbol belongs to, or None.

    Reads past a function template's return type, folds lambdas and
    local classes into the function that defines them, folds the
    instances of a function template into the template, and reads a
    thunk as its target.
    """
    d = demangled
    for prefix in ("non-virtual thunk to ", "virtual thunk to "):
        d = d.removeprefix(prefix)
    depth, i, name_start, paren = 0, 0, 0, None
    while i < len(d):
        if depth == 0 and d.startswith("operator", i):
            i += len("operator")
            if d.startswith("()", i) or d.startswith("[]", i):
                i += 2
            while i < len(d) and d[i] in OPERATOR_CHARS:
                i += 1
            continue
        ch = d[i]
        if ch in OPEN:
            if ch == "(" and depth == 0:
                paren = i
                break
            depth += 1
        elif ch in CLOSE:
            depth -= 1
        elif ch == " " and depth == 0:
            name_start = i + 1
        i += 1
    if paren is None:
        return None
    qualified = d[name_start:paren]
    if not qualified.startswith("photofourier::"):
        return None
    qualified = qualified.replace("[abi:cxx11]", "")
    if qualified.endswith(">") and not qualified.endswith("operator>"):
        # A function template instance: report the template.
        depth, j = 0, len(qualified) - 1
        while j >= 0:
            depth += qualified[j] in CLOSE
            depth -= qualified[j] in OPEN
            if depth == 0:
                return qualified[:j]
            j -= 1
    depth, end = 0, paren
    while end < len(d):
        depth += d[end] in OPEN
        depth -= d[end] in CLOSE
        end += 1
        if depth == 0:
            break
    rest = d[end:]
    qualifiers = ""
    for q in QUALIFIERS:
        if rest.startswith(q):
            qualifiers += q
            rest = rest[len(q):]
    name = qualified + d[paren:end] + qualifiers
    for long, short in ABBREVIATIONS:
        name = name.replace(long, short)
    return ALLOCATOR.sub(">", name)


def special_member(fn: str) -> bool:
    """True for `X()`, `X(X const&)`, `X(X&&)` and `~X()`."""
    qualified, _, params = fn.partition("(")
    scope, _, name = qualified.rpartition("::")
    cls = scope.rpartition("::")[2].split("<")[0]
    if name not in (cls, "~" + cls):
        return False
    params = params.removesuffix(")")
    return params in ("", f"{scope} const&", f"{scope}&&")


def findings(tree: Path, bench: Path) -> tuple[dict[str, str],
                                              dict[str, str], int]:
    """(test-only, dead) maps of function -> source file."""
    lib, weak = library_symbols(tree / "libphotofourier.a")
    headers = {str(p.relative_to(ROOT)): p.read_text()
               for p in (ROOT / "src").rglob("*.hh")}
    system, others = executables(tree, bench)
    in_system: set[str] = set()
    for b in system:
        in_system |= text_symbols(b)
    in_others: set[str] = set()
    for b in others:
        in_others |= text_symbols(b)

    mangled = sorted(lib)
    names = dict(zip(mangled, demangle(mangled)))
    reached: set[str] = set()
    test_only: dict[str, str] = {}
    dead: dict[str, str] = {}
    for sym in mangled:
        fn = own_function(names[sym])
        if fn is None or special_member(fn):
            continue
        if sym in in_system:
            reached.add(fn)
            continue
        dest = test_only if sym in in_others else dead
        src = lib[sym]
        if sym in weak:
            src = declaring_header(fn, headers) or src
        if fn not in dest or src < dest[fn]:
            dest[fn] = src
    # A function with any reached symbol (a constructor's other
    # variant, a lambda of a reached function) is reached.
    for fn in reached:
        test_only.pop(fn, None)
        dead.pop(fn, None)
    for fn in test_only:
        dead.pop(fn, None)
    return test_only, dead, len(system)


def read_allowlist() -> dict[str, str]:
    allowed: dict[str, str] = {}
    for n, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" # ")
        if not sep or not reason.strip():
            sys.exit(f"{ALLOWLIST.name}:{n}: no ` # reason` after the name")
        allowed[name.strip()] = reason.strip()
    return allowed


def report(title: str, found: dict[str, str], allowed: dict[str, str]):
    print(f"{title}: {len(found)}")
    by_file: dict[str, list[str]] = {}
    for fn, src in found.items():
        by_file.setdefault(src, []).append(fn)
    for src in sorted(by_file):
        print(f"  {src}")
        for fn in sorted(by_file[src]):
            mark = "allowed" if fn in allowed else "NEW"
            print(f"    [{mark}] {fn}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", type=Path,
                    help="directory for the two unoptimised build trees")
    args = ap.parse_args()

    out = args.build_dir.resolve()
    out.mkdir(parents=True, exist_ok=True)
    tree, bench = build(out)
    test_only, dead, n_system = findings(tree, bench)
    allowed = read_allowlist()

    print(f"system programs: {n_system}")
    report("test-only photofourier:: functions", test_only, allowed)
    report("dead photofourier:: functions", dead, allowed)

    found = set(test_only) | set(dead)
    new = sorted(found - set(allowed))
    stale = sorted(set(allowed) - found)
    for fn in stale:
        print(f"STALE allowlist entry (no longer a finding): {fn}")
    if new or stale:
        print(f"test_only_functions: {len(new)} finding(s) not in "
              f"{ALLOWLIST.relative_to(ROOT)}, {len(stale)} stale "
              f"entr{'y' if len(stale) == 1 else 'ies'}; delete the "
              "function, call it from a program, or allowlist it with "
              "a reason")
        return 1
    print("test_only_functions: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
