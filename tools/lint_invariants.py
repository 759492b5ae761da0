#!/usr/bin/env python3
"""Repo-specific invariant linter.

Enforces the correctness contracts the compiler cannot see, so they
hold mechanically for every future PR instead of one test at a time:

  into-alloc-test   every `*Into` method/function declared in a src/
                    header has a zero-allocation test naming it in a
                    test file that includes counting_alloc.hh (the
                    counting-operator-new pin harness).
  naked-alloc       no naked `new`/`malloc`/`calloc`/`realloc`/
                    `aligned_alloc` in src/ — hot-path scratch lives in
                    per-thread containers owned by the code that uses
                    them, everything else in containers/make_shared.
  banned-random     no `std::rand`/`srand`/`std::random_device`: all
                    stochastic code draws from the explicitly seeded
                    photofourier::Rng (the PR 2 noise-determinism
                    contract; results must be reproducible bit-for-bit
                    across runs and platforms).
  cache-lock-order  every `std::mutex`/`std::shared_mutex` member in a
                    cache header carries a lock-order comment within
                    the three preceding lines, so the locking
                    discipline survives refactors.
  iwyu              src/ headers directly include what they use for a
                    fixed table of common std symbols (no reliance on
                    transitive includes that a refactor can sever).
  intrinsics-confined
                    raw SIMD intrinsic tokens (`__m256`, `_mm_`/
                    `_mm256_`, `vld1q`/`vst1q`, `vfma`, ...) appear
                    only in src/arch/simd.hh and src/arch/simd.cc —
                    every other file goes through the dispatched
                    kernel table, so sanitizers, equivalence tests,
                    and future ISAs all face one seam.
  bench-rows        every benchmark family recorded in BENCH_micro.json
                    (a row's run_name up to the first `/`) still has a
                    BENCHMARK(...) registration in
                    bench/micro_kernels.cc, so deleted code does not
                    linger in the recorded perf trajectory.

Usage:
    python3 tools/lint_invariants.py [--root DIR] [--rule NAME]...

Exit status is 0 when the tree is clean, 1 otherwise; violations print
as `file:line: [rule] message`. A finding can be suppressed on its
line with a `// lint: allow(<rule>) <reason>` comment — reasons are
mandatory by convention and show up in review.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def strip_comments(text):
    """Remove //... and /*...*/ comments and string/char literals,
    preserving line structure so reported line numbers stay valid."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            j = text.find('\n', i)
            if j == -1:
                break
            i = j  # keep the newline
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            end = n if j == -1 else j + 2
            out.append('\n' * text.count('\n', i, end))
            i = end
        elif c in '"\'':
            quote = c
            j = i + 1
            while j < n:
                if text[j] == '\\':
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            out.append(quote + quote)
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def read(path):
    with open(path, encoding='utf-8') as f:
        return f.read()


def walk_sources(root, subdir, exts):
    base = os.path.join(root, subdir)
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if os.path.splitext(name)[1] in exts:
                yield os.path.join(dirpath, name)


def allowed(raw_line, rule):
    return re.search(r'lint:\s*allow\(\s*%s\s*\)' % re.escape(rule),
                     raw_line) is not None


class Report:
    def __init__(self):
        self.findings = []

    def add(self, path, line, rule, message, raw_lines):
        if 1 <= line <= len(raw_lines) and allowed(raw_lines[line - 1], rule):
            return
        self.findings.append((path, line, rule, message))


# --------------------------------------------------------------------------
# Rule: every *Into API has a counting-allocator test naming it
# --------------------------------------------------------------------------


def rule_into_alloc_test(root, report):
    declared = {}  # name -> (file, line) of first declaration
    for path in walk_sources(root, 'src', {'.hh'}):
        code = strip_comments(read(path))
        for lineno, line in enumerate(code.splitlines(), 1):
            for m in re.finditer(r'\b([A-Za-z_]\w*Into)\s*\(', line):
                declared.setdefault(m.group(1), (path, lineno))

    pinned = set()
    for path in walk_sources(root, 'tests', {'.cc'}):
        text = read(path)
        if 'counting_alloc.hh' not in text:
            continue
        code = strip_comments(text)
        for name in declared:
            if re.search(r'\b%s\b' % re.escape(name), code):
                pinned.add(name)

    for name in sorted(declared):
        if name in pinned:
            continue
        path, line = declared[name]
        report.add(
            path, line, 'into-alloc-test',
            '%s has no counting-allocator zero-allocation test: name it '
            'in a tests/*.cc that includes counting_alloc.hh and pin a '
            'zero pf_test_allocations delta over its warm steady state'
            % name, read(path).splitlines())


# --------------------------------------------------------------------------
# Rule: no naked allocations
# --------------------------------------------------------------------------

ALLOC_PATTERN = re.compile(
    r'(?<![\w.])(new\b(?!\s*\())'          # naked new (incl. new[])
    r'|(?<![\w.])(new\s*\()'               # placement/paren new
    r'|\b(malloc|calloc|realloc|aligned_alloc)\s*\(')


def rule_naked_alloc(root, report):
    for path in walk_sources(root, 'src', {'.cc', '.hh'}):
        raw = read(path).splitlines()
        code = strip_comments(read(path))
        for lineno, line in enumerate(code.splitlines(), 1):
            if ALLOC_PATTERN.search(line):
                report.add(
                    path, lineno, 'naked-alloc',
                    'naked allocation: hot-path scratch lives in '
                    'per-thread containers owned by the code that uses '
                    'them; everything else uses containers or '
                    'std::make_shared/make_unique', raw)


# --------------------------------------------------------------------------
# Rule: no std::rand / std::random_device
# --------------------------------------------------------------------------

RANDOM_PATTERN = re.compile(
    r'\b(?:std\s*::\s*)?(rand|srand|random_device)\b')


def rule_banned_random(root, report):
    for path in walk_sources(root, 'src', {'.cc', '.hh'}):
        raw = read(path).splitlines()
        code = strip_comments(read(path))
        for lineno, line in enumerate(code.splitlines(), 1):
            m = RANDOM_PATTERN.search(line)
            if m:
                report.add(
                    path, lineno, 'banned-random',
                    '%s is banned: draw from an explicitly seeded '
                    'photofourier::Rng so experiments and noise stay '
                    'deterministic across runs and platforms' % m.group(1),
                    raw)


# --------------------------------------------------------------------------
# Rule: mutex members in cache headers carry a lock-order comment
# --------------------------------------------------------------------------

MUTEX_MEMBER = re.compile(
    r'^\s*(?:mutable\s+)?std\s*::\s*(?:shared_)?mutex\s+\w+_?\s*;')


def rule_cache_lock_order(root, report):
    for path in walk_sources(root, 'src', {'.hh'}):
        if 'cache' not in os.path.basename(path).lower():
            continue
        raw = read(path).splitlines()
        for lineno, line in enumerate(raw, 1):
            if not MUTEX_MEMBER.match(line):
                continue
            window = raw[max(0, lineno - 4):lineno]
            if not any(re.search(r'lock\s+order', w, re.IGNORECASE)
                       for w in window):
                report.add(
                    path, lineno, 'cache-lock-order',
                    'mutex member in a cache class without a lock-order '
                    'comment within the 3 preceding lines (say what may '
                    'be held while acquiring it, and what must not)', raw)


# --------------------------------------------------------------------------
# Rule: include-what-you-use for src/ headers
# --------------------------------------------------------------------------

# symbol pattern -> acceptable direct includes (any one satisfies).
IWYU_TABLE = [
    (r'\bstd\s*::\s*vector\b', ('vector',)),
    (r'\bstd\s*::\s*string\b(?!_view)', ('string',)),
    (r'\bstd\s*::\s*string_view\b', ('string_view',)),
    (r'\bstd\s*::\s*(?:shared_ptr|unique_ptr|weak_ptr|make_shared|'
     r'make_unique|enable_shared_from_this)\b', ('memory',)),
    (r'\bstd\s*::\s*function\b', ('functional',)),
    (r'\bstd\s*::\s*atomic\b', ('atomic',)),
    (r'\bstd\s*::\s*(?:mutex|lock_guard|unique_lock|scoped_lock|'
     r'condition_variable)\b', ('mutex', 'condition_variable')),
    (r'\bstd\s*::\s*(?:shared_mutex|shared_lock)\b', ('shared_mutex',)),
    (r'\bstd\s*::\s*(?:optional|nullopt)\b', ('optional',)),
    (r'\bstd\s*::\s*(?:pair|make_pair|move|forward)\b', ('utility',)),
    (r'\bstd\s*::\s*unordered_(?:map|multimap)\b', ('unordered_map',)),
    (r'\bstd\s*::\s*unordered_(?:set|multiset)\b', ('unordered_set',)),
    (r'\bstd\s*::\s*deque\b', ('deque',)),
    (r'\bstd\s*::\s*thread\b', ('thread',)),
    (r'\bstd\s*::\s*complex\b', ('complex',)),
    (r'\bstd\s*::\s*array\b', ('array',)),
    (r'\b(?:std\s*::\s*)?u?int(?:8|16|32|64)_t\b', ('cstdint',)),
    (r'\b(?:std\s*::\s*)?size_t\b', ('cstddef', 'cstdint')),
    (r'\bstd\s*::\s*(?:ostream|istream|iostream)\b',
     ('iosfwd', 'ostream', 'istream', 'iostream', 'sstream', 'fstream')),
]


def rule_iwyu(root, report):
    for path in walk_sources(root, 'src', {'.hh'}):
        raw = read(path).splitlines()
        code = strip_comments(read(path))
        includes = set(re.findall(r'^\s*#\s*include\s*<([^>]+)>', code,
                                  re.MULTILINE))
        for pattern, headers in IWYU_TABLE:
            if any(h in includes for h in headers):
                continue
            m = re.search(pattern, code)
            if not m:
                continue
            lineno = code.count('\n', 0, m.start()) + 1
            report.add(
                path, lineno, 'iwyu',
                '%s used without directly including <%s> (transitive '
                'includes can be severed by refactors)'
                % (m.group(0).strip(), headers[0]), raw)


# --------------------------------------------------------------------------
# Rule: raw SIMD intrinsics are confined to src/arch/simd.{hh,cc}
# --------------------------------------------------------------------------

INTRINSIC_PATTERN = re.compile(
    r'\b(?:__m(?:64|128|256|512)[di]?\b'   # x86 vector types
    r'|_mm(?:256|512)?_\w+'                # SSE/AVX intrinsic calls
    r'|(?:u?int|float|poly)(?:8|16|32|64)x\d+(?:x\d+)?_t\b'  # NEON types
    r'|v(?:ld|st)[1-4]q?_\w+'              # NEON structure loads/stores
    r'|vfm[as]q?_\w+)'                     # NEON fused multiply-add/sub
    r'|#\s*include\s*<(?:immintrin|x86intrin|arm_neon)\.h>')

INTRINSIC_HOME = {os.path.join('src', 'arch', 'simd.hh'),
                  os.path.join('src', 'arch', 'simd.cc')}


def rule_intrinsics_confined(root, report):
    for path in walk_sources(root, 'src', {'.cc', '.hh'}):
        if os.path.relpath(path, root) in INTRINSIC_HOME:
            continue
        raw = read(path).splitlines()
        code = strip_comments(read(path))
        for lineno, line in enumerate(code.splitlines(), 1):
            m = INTRINSIC_PATTERN.search(line)
            if m:
                report.add(
                    path, lineno, 'intrinsics-confined',
                    'raw SIMD intrinsic %r outside src/arch/simd.{hh,cc}: '
                    'go through the simd::kernels() dispatch table so the '
                    'scalar fallback, sanitizers, and equivalence tests '
                    'cover this code path too' % m.group(0).strip(), raw)


# --------------------------------------------------------------------------
# Rule: recorded benchmark families are still registered
# --------------------------------------------------------------------------

BENCHMARK_REGISTRATION = re.compile(r'\bBENCHMARK\s*\(\s*(\w+)\s*\)')


def rule_bench_rows(root, report):
    recorded = os.path.join(root, 'BENCH_micro.json')
    source = os.path.join(root, 'bench', 'micro_kernels.cc')
    if not os.path.exists(recorded):
        return
    registered = set(
        BENCHMARK_REGISTRATION.findall(strip_comments(read(source))))
    text = read(recorded)
    raw = text.splitlines()
    families = []
    for row in json.loads(text).get('benchmarks', []):
        family = row.get('run_name', row.get('name', '')).split('/')[0]
        if family and family not in families:
            families.append(family)
    for family in families:
        if family in registered:
            continue
        needle = '"%s' % family
        line = next((i for i, text in enumerate(raw, 1)
                     if needle in text), 1)
        report.add(
            recorded, line, 'bench-rows',
            'benchmark family %s has no BENCHMARK(%s) in '
            'bench/micro_kernels.cc: re-record with bench/run_benches.sh '
            'so rows of deleted code drop out' % (family, family), raw)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = {
    'into-alloc-test': rule_into_alloc_test,
    'naked-alloc': rule_naked_alloc,
    'banned-random': rule_banned_random,
    'cache-lock-order': rule_cache_lock_order,
    'iwyu': rule_iwyu,
    'intrinsics-confined': rule_intrinsics_confined,
    'bench-rows': rule_bench_rows,
}


def main():
    parser = argparse.ArgumentParser(
        description='PhotoFourier repo-invariant linter')
    parser.add_argument('--root', default='.',
                        help='repository root (default: cwd)')
    parser.add_argument('--rule', action='append', choices=sorted(RULES),
                        help='run only the named rule (repeatable)')
    args = parser.parse_args()

    report = Report()
    for name in (args.rule or sorted(RULES)):
        RULES[name](args.root, report)

    if not report.findings:
        print('lint_invariants: clean (%s)' %
              ', '.join(args.rule or sorted(RULES)))
        return 0

    report.findings.sort()
    for path, line, rule, message in report.findings:
        rel = os.path.relpath(path, args.root)
        print('%s:%d: [%s] %s' % (rel, line, rule, message))
    print('\nlint_invariants: %d violation(s).' % len(report.findings))
    print('Suppress a line with: // lint: allow(<rule>) <reason>')
    return 1


if __name__ == '__main__':
    sys.exit(main())
