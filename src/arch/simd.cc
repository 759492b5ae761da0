/**
 * @file
 * SIMD kernel implementations and the runtime dispatcher.
 *
 * The AVX2 kernels carry per-function `target("avx2,fma")` attributes
 * so this file compiles with the tree's normal flags on any x86-64
 * (the vector instructions are only reached after __builtin_cpu_
 * supports says the host has them). NEON kernels compile only on
 * AArch64, where Advanced SIMD is part of the baseline ISA.
 *
 * This file and simd.hh are the ONLY translation units allowed to
 * contain raw intrinsics (enforced by tools/lint_invariants.py's
 * intrinsics-confined rule): everything else goes through the
 * dispatch table, so sanitizers, tests, and future ISAs all face one
 * seam.
 */

#include "arch/simd.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define PF_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define PF_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace photofourier {
namespace simd {

namespace {

/** Transpose tile edge: 32x32 complex = 16 KiB working set. */
constexpr size_t kTransposeBlock = 32;

// ---------------------------------------------------------------------------
// Scalar kernels — the reference semantics. Every other level is
// pinned against these by tests/test_simd.cc.
// ---------------------------------------------------------------------------

void
butterflyStageScalar(double *re, double *im, size_t n, size_t half,
                     size_t k_lo, size_t k_hi, const double *twre,
                     const double *twim)
{
    const size_t len = 2 * half;
    for (size_t i = 0; i < n; i += len) {
        double *re0 = re + i;
        double *im0 = im + i;
        double *re1 = re0 + half;
        double *im1 = im0 + half;
        for (size_t k = k_lo; k < k_hi; ++k) {
            const double wr = twre[k];
            const double wi = twim[k];
            const double vr = re1[k] * wr - im1[k] * wi;
            const double vi = re1[k] * wi + im1[k] * wr;
            const double ur = re0[k];
            const double ui = im0[k];
            re0[k] = ur + vr;
            im0[k] = ui + vi;
            re1[k] = ur - vr;
            im1[k] = ui - vi;
        }
    }
}

void
deinterleaveScalar(const double *z, const uint32_t *perm, size_t n,
                   double *re, double *im)
{
    for (size_t i = 0; i < n; ++i) {
        re[i] = z[2 * perm[i]];
        im[i] = z[2 * perm[i] + 1];
    }
}

void
interleaveScalar(const double *re, const double *im, size_t first,
                 size_t count, double s, double *out)
{
    for (size_t j = first; j < first + count; ++j)
        out[j - first] = s * ((j % 2 == 0) ? re[j / 2] : im[j / 2]);
}

void
realUntangleForwardScalar(const double *z, const double *tw,
                          double *out, size_t h)
{
    for (size_t k = 1; k < h; ++k) {
        const double ar = z[2 * k], ai = z[2 * k + 1];
        const double br = z[2 * (h - k)], bi = -z[2 * (h - k) + 1];
        const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
        // odd = -i/2 * (a - b)
        const double or_ = 0.5 * (ai - bi);
        const double oi = -0.5 * (ar - br);
        const double wr = tw[2 * k], wi = tw[2 * k + 1];
        out[2 * k] = er + (or_ * wr - oi * wi);
        out[2 * k + 1] = ei + (or_ * wi + oi * wr);
    }
}

void
realUntangleInverseScalar(const double *in, const double *tw,
                          double *z, size_t h)
{
    for (size_t k = 0; k < h; ++k) {
        const double ar = in[2 * k], ai = in[2 * k + 1];
        const double br = in[2 * (h - k)], bi = -in[2 * (h - k) + 1];
        const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
        const double dr = 0.5 * (ar - br), di = 0.5 * (ai - bi);
        // odd = d * conj(tw); z = even + i*odd
        const double wr = tw[2 * k], wi = tw[2 * k + 1];
        const double or_ = dr * wr + di * wi;
        const double oi = di * wr - dr * wi;
        z[2 * k] = er - oi;
        z[2 * k + 1] = ei + or_;
    }
}

void
complexMulInPlaceScalar(double *a, const double *b, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const double ar = a[2 * i], ai = a[2 * i + 1];
        const double br = b[2 * i], bi = b[2 * i + 1];
        a[2 * i] = ar * br - ai * bi;
        a[2 * i + 1] = ar * bi + ai * br;
    }
}

void
complexMacIntoScalar(double *acc, const double *a, const double *b,
                     size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const double ar = a[2 * i], ai = a[2 * i + 1];
        const double br = b[2 * i], bi = b[2 * i + 1];
        acc[2 * i] += ar * br - ai * bi;
        acc[2 * i + 1] += ar * bi + ai * br;
    }
}

/** Shared edge handling: the bounds-checked reference loop over one
 *  output range, used verbatim by the vector kernels outside their
 *  all-taps-in-bounds middle region. */
void
slidingDotEdge(const double *s, size_t n_s, const size_t *tap_idx,
               const double *tap_val, size_t n_taps, long start,
               size_t i_begin, size_t i_end, double *out)
{
    for (size_t i = i_begin; i < i_end; ++i) {
        const long j = start + static_cast<long>(i);
        double acc = 0.0;
        for (size_t t = 0; t < n_taps; ++t) {
            const long idx = j + static_cast<long>(tap_idx[t]);
            if (idx >= 0 && idx < static_cast<long>(n_s))
                acc += s[static_cast<size_t>(idx)] * tap_val[t];
        }
        out[i] += acc;
    }
}

void
slidingDotScalar(const double *s, size_t n_s, const size_t *tap_idx,
                 const double *tap_val, size_t n_taps, long start,
                 size_t count, double *out)
{
    slidingDotEdge(s, n_s, tap_idx, tap_val, n_taps, start, 0, count,
                   out);
}

/**
 * The output range [i_lo, i_hi) inside which every tap of every
 * window is in bounds, so vector kernels can load unconditionally.
 * Requires n_taps >= 1 and ascending tap_idx.
 */
void
slidingDotSafeRange(size_t n_s, const size_t *tap_idx, size_t n_taps,
                    long start, size_t count, size_t &i_lo,
                    size_t &i_hi)
{
    // start + i + tap_idx[0] >= 0  and  start + i + tap_idx[last] < n_s
    const long lo = -start - static_cast<long>(tap_idx[0]);
    const long hi = static_cast<long>(n_s) - start -
                    static_cast<long>(tap_idx[n_taps - 1]);
    i_lo = lo <= 0 ? 0
                   : (lo >= static_cast<long>(count)
                          ? count
                          : static_cast<size_t>(lo));
    i_hi = hi <= static_cast<long>(i_lo)
               ? i_lo
               : (hi >= static_cast<long>(count)
                      ? count
                      : static_cast<size_t>(hi));
}

void
transposeComplexScalar(const double *in, size_t rows, size_t cols,
                       double *out)
{
    for (size_t r0 = 0; r0 < rows; r0 += kTransposeBlock) {
        const size_t r1 =
            r0 + kTransposeBlock < rows ? r0 + kTransposeBlock : rows;
        for (size_t c0 = 0; c0 < cols; c0 += kTransposeBlock) {
            const size_t c1 = c0 + kTransposeBlock < cols
                                  ? c0 + kTransposeBlock
                                  : cols;
            for (size_t r = r0; r < r1; ++r) {
                for (size_t c = c0; c < c1; ++c) {
                    out[2 * (c * rows + r)] = in[2 * (r * cols + c)];
                    out[2 * (c * rows + r) + 1] =
                        in[2 * (r * cols + c) + 1];
                }
            }
        }
    }
}

void
jointIntensitySumScalar(const double *const *s, const double *const *k,
                        size_t channels, size_t n, double *out)
{
    for (size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (size_t c = 0; c < channels; ++c) {
            const double re = s[c][2 * i] + k[c][2 * i];
            const double im = s[c][2 * i + 1] + k[c][2 * i + 1];
            acc += re * re + im * im;
        }
        out[2 * i] = acc;
        out[2 * i + 1] = 0.0;
    }
}

constexpr Kernels kScalarKernels = {
    butterflyStageScalar,     deinterleaveScalar,
    interleaveScalar,
    realUntangleForwardScalar, realUntangleInverseScalar,
    complexMulInPlaceScalar,  complexMacIntoScalar,
    slidingDotScalar,         transposeComplexScalar,
    jointIntensitySumScalar,
};

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (x86-64). 4 doubles / 2 complexes per vector.
// All loads and stores are unaligned-safe (loadu/storeu) — scratch
// buffers come from std::vector and carry no 32-byte guarantee.
// ---------------------------------------------------------------------------

#if PF_SIMD_X86

#define PF_AVX2 __attribute__((target("avx2,fma")))

/**
 * AVX2 without FMA, never inlined: with no FMA instruction to target,
 * the compiler cannot fuse a kernel's separate multiplies and adds, so
 * its results are the scalar kernel's bit for bit. (Intrinsic mul and
 * add are plain vector arithmetic to GCC, which contracts them in an
 * FMA-enabled function.)
 */
#define PF_AVX2_EXACT __attribute__((target("avx2"), noinline))

/**
 * One radix-2 butterfly on four lanes, in place: v = x * w, then
 * (u, x) = (u + v, u - v), the scalar stage's arithmetic.
 */
__attribute__((target("avx2"))) inline void
butterflyLanesAvx2(__m256d &ur, __m256d &ui, __m256d &xr, __m256d &xi,
                   __m256d wr, __m256d wi)
{
    const __m256d vr =
        _mm256_sub_pd(_mm256_mul_pd(xr, wr), _mm256_mul_pd(xi, wi));
    const __m256d vi =
        _mm256_add_pd(_mm256_mul_pd(xr, wi), _mm256_mul_pd(xi, wr));
    xr = _mm256_sub_pd(ur, vr);
    xi = _mm256_sub_pd(ui, vi);
    ur = _mm256_add_pd(ur, vr);
    ui = _mm256_add_pd(ui, vi);
}

/** The half = 1 stage, n a multiple of 8. Blocks (0 1) (2 3) (4 5)
 *  (6 7) of one step: u = 0 4 2 6, x = 1 5 3 7. */
PF_AVX2_EXACT void
butterflyHalf1Avx2(double *re, double *im, size_t n, const double *twre,
                   const double *twim)
{
    const __m256d wr = _mm256_set1_pd(twre[0]);
    const __m256d wi = _mm256_set1_pd(twim[0]);
    for (size_t i = 0; i < n; i += 8) {
        const __m256d r0 = _mm256_loadu_pd(re + i);
        const __m256d r1 = _mm256_loadu_pd(re + i + 4);
        const __m256d i0 = _mm256_loadu_pd(im + i);
        const __m256d i1 = _mm256_loadu_pd(im + i + 4);
        __m256d ur = _mm256_unpacklo_pd(r0, r1);
        __m256d xr = _mm256_unpackhi_pd(r0, r1);
        __m256d ui = _mm256_unpacklo_pd(i0, i1);
        __m256d xi = _mm256_unpackhi_pd(i0, i1);
        butterflyLanesAvx2(ur, ui, xr, xi, wr, wi);
        _mm256_storeu_pd(re + i, _mm256_unpacklo_pd(ur, xr));
        _mm256_storeu_pd(re + i + 4, _mm256_unpackhi_pd(ur, xr));
        _mm256_storeu_pd(im + i, _mm256_unpacklo_pd(ui, xi));
        _mm256_storeu_pd(im + i + 4, _mm256_unpackhi_pd(ui, xi));
    }
}

/** The half = 2 stage, n a multiple of 8. Blocks (0 1 2 3) (4 5 6 7)
 *  of one step: u = 0 1 4 5, x = 2 3 6 7. */
PF_AVX2_EXACT void
butterflyHalf2Avx2(double *re, double *im, size_t n, const double *twre,
                   const double *twim)
{
    const __m256d wr = _mm256_setr_pd(twre[0], twre[1], twre[0], twre[1]);
    const __m256d wi = _mm256_setr_pd(twim[0], twim[1], twim[0], twim[1]);
    for (size_t i = 0; i < n; i += 8) {
        const __m256d r0 = _mm256_loadu_pd(re + i);
        const __m256d r1 = _mm256_loadu_pd(re + i + 4);
        const __m256d i0 = _mm256_loadu_pd(im + i);
        const __m256d i1 = _mm256_loadu_pd(im + i + 4);
        __m256d ur = _mm256_permute2f128_pd(r0, r1, 0x20);
        __m256d xr = _mm256_permute2f128_pd(r0, r1, 0x31);
        __m256d ui = _mm256_permute2f128_pd(i0, i1, 0x20);
        __m256d xi = _mm256_permute2f128_pd(i0, i1, 0x31);
        butterflyLanesAvx2(ur, ui, xr, xi, wr, wi);
        _mm256_storeu_pd(re + i, _mm256_permute2f128_pd(ur, xr, 0x20));
        _mm256_storeu_pd(re + i + 4, _mm256_permute2f128_pd(ur, xr, 0x31));
        _mm256_storeu_pd(im + i, _mm256_permute2f128_pd(ui, xi, 0x20));
        _mm256_storeu_pd(im + i + 4, _mm256_permute2f128_pd(ui, xi, 0x31));
    }
}

PF_AVX2 void
butterflyStageAvx2(double *re, double *im, size_t n, size_t half,
                   size_t k_lo, size_t k_hi, const double *twre,
                   const double *twim)
{
    // half is a power of two. Stages narrower than the vector width
    // (always whole: they are narrower than kButterflyRangeGrain)
    // shuffle whole blocks into the lanes, eight elements per step;
    // the scalar loop takes them when n is not a multiple of 8. From
    // half = 4 up, each block divides into vectors evenly, and so
    // does a range on the grain.
    if (half < 4 && n % 8 != 0) {
        butterflyStageScalar(re, im, n, half, k_lo, k_hi, twre, twim);
        return;
    }
    if (half == 1) {
        butterflyHalf1Avx2(re, im, n, twre, twim);
        return;
    }
    if (half == 2) {
        butterflyHalf2Avx2(re, im, n, twre, twim);
        return;
    }
    const size_t len = 2 * half;
    for (size_t i = 0; i < n; i += len) {
        double *re0 = re + i;
        double *im0 = im + i;
        double *re1 = re0 + half;
        double *im1 = im0 + half;
        for (size_t k = k_lo; k < k_hi; k += 4) {
            const __m256d wr = _mm256_loadu_pd(twre + k);
            const __m256d wi = _mm256_loadu_pd(twim + k);
            const __m256d xr = _mm256_loadu_pd(re1 + k);
            const __m256d xi = _mm256_loadu_pd(im1 + k);
            const __m256d vr =
                _mm256_fmsub_pd(xr, wr, _mm256_mul_pd(xi, wi));
            const __m256d vi =
                _mm256_fmadd_pd(xr, wi, _mm256_mul_pd(xi, wr));
            const __m256d ur = _mm256_loadu_pd(re0 + k);
            const __m256d ui = _mm256_loadu_pd(im0 + k);
            _mm256_storeu_pd(re0 + k, _mm256_add_pd(ur, vr));
            _mm256_storeu_pd(im0 + k, _mm256_add_pd(ui, vi));
            _mm256_storeu_pd(re1 + k, _mm256_sub_pd(ur, vr));
            _mm256_storeu_pd(im1 + k, _mm256_sub_pd(ui, vi));
        }
    }
}

PF_AVX2 void
deinterleaveAvx2(const double *z, const uint32_t *perm, size_t n,
                 double *re, double *im)
{
    // Four gathered complexes per step, one 128-bit (re, im) load
    // each: lo = z[p0], z[p2] and hi = z[p1], z[p3], so one unpack
    // splits them into re and im.
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d lo = _mm256_insertf128_pd(
            _mm256_castpd128_pd256(_mm_loadu_pd(z + 2 * perm[i])),
            _mm_loadu_pd(z + 2 * perm[i + 2]), 1);
        const __m256d hi = _mm256_insertf128_pd(
            _mm256_castpd128_pd256(_mm_loadu_pd(z + 2 * perm[i + 1])),
            _mm_loadu_pd(z + 2 * perm[i + 3]), 1);
        _mm256_storeu_pd(re + i, _mm256_unpacklo_pd(lo, hi));
        _mm256_storeu_pd(im + i, _mm256_unpackhi_pd(lo, hi));
    }
    for (; i < n; ++i) {
        re[i] = z[2 * perm[i]];
        im[i] = z[2 * perm[i] + 1];
    }
}

PF_AVX2 void
interleaveAvx2(const double *re, const double *im, size_t first,
               size_t count, double s, double *out)
{
    const size_t end = first + count;
    size_t j = first;
    if (j % 2 != 0 && j < end) // odd start: one imaginary part first
        *out++ = s * im[j++ / 2];
    const __m256d vs = _mm256_set1_pd(s);
    for (; j + 8 <= end; j += 8, out += 8) {
        const __m256d r = _mm256_mul_pd(_mm256_loadu_pd(re + j / 2), vs);
        const __m256d m = _mm256_mul_pd(_mm256_loadu_pd(im + j / 2), vs);
        const __m256d lo = _mm256_unpacklo_pd(r, m); // r0 i0 r2 i2
        const __m256d hi = _mm256_unpackhi_pd(r, m); // r1 i1 r3 i3
        _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
        _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    }
    for (; j < end; ++j)
        *out++ = s * ((j % 2 == 0) ? re[j / 2] : im[j / 2]);
}

/** (a0, a1) complex product (b0, b1), both interleaved in __m256d. */
PF_AVX2 inline __m256d
cmulAvx2(__m256d a, __m256d b)
{
    const __m256d bre = _mm256_movedup_pd(b);        // br0 br0 br1 br1
    const __m256d bim = _mm256_permute_pd(b, 0xF);   // bi0 bi0 bi1 bi1
    const __m256d asw = _mm256_permute_pd(a, 0x5);   // ai0 ar0 ai1 ar1
    return _mm256_fmaddsub_pd(a, bre, _mm256_mul_pd(asw, bim));
}

/** a * conj(b), both interleaved. */
PF_AVX2 inline __m256d
cmulConjAvx2(__m256d a, __m256d b)
{
    const __m256d bre = _mm256_movedup_pd(b);
    const __m256d bim = _mm256_permute_pd(b, 0xF);
    const __m256d asw = _mm256_permute_pd(a, 0x5);
    return _mm256_fmsubadd_pd(a, bre, _mm256_mul_pd(asw, bim));
}

/** Load complexes (p[0], p[1]) reversed to ((p[1]), (p[0])),
 *  conjugated. */
PF_AVX2 inline __m256d
loadRevConjAvx2(const double *p)
{
    const __m256d raw = _mm256_loadu_pd(p);
    const __m256d swapped = _mm256_permute2f128_pd(raw, raw, 0x01);
    const __m256d conj_mask =
        _mm256_castsi256_pd(_mm256_set_epi64x(
            static_cast<long long>(0x8000000000000000ull), 0,
            static_cast<long long>(0x8000000000000000ull), 0));
    return _mm256_xor_pd(swapped, conj_mask);
}

PF_AVX2 void
realUntangleForwardAvx2(const double *z, const double *tw, double *out,
                        size_t h)
{
    const __m256d halfv = _mm256_set1_pd(0.5);
    // odd = -i/2 * d: (dr, di) -> (di/2, -dr/2)
    const __m256d oddscale =
        _mm256_setr_pd(0.5, -0.5, 0.5, -0.5);
    size_t k = 1;
    // Vector step covers bins k, k+1; b needs z[h-k], z[h-k-1].
    for (; k + 2 <= h; k += 2) {
        const __m256d a = _mm256_loadu_pd(z + 2 * k);
        const __m256d b = loadRevConjAvx2(z + 2 * (h - k - 1));
        const __m256d even =
            _mm256_mul_pd(_mm256_add_pd(a, b), halfv);
        const __m256d d = _mm256_sub_pd(a, b);
        const __m256d odd =
            _mm256_mul_pd(_mm256_permute_pd(d, 0x5), oddscale);
        const __m256d w = _mm256_loadu_pd(tw + 2 * k);
        _mm256_storeu_pd(out + 2 * k,
                         _mm256_add_pd(even, cmulAvx2(odd, w)));
    }
    for (; k < h; ++k) {
        const double ar = z[2 * k], ai = z[2 * k + 1];
        const double br = z[2 * (h - k)], bi = -z[2 * (h - k) + 1];
        const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
        const double or_ = 0.5 * (ai - bi);
        const double oi = -0.5 * (ar - br);
        const double wr = tw[2 * k], wi = tw[2 * k + 1];
        out[2 * k] = er + (or_ * wr - oi * wi);
        out[2 * k + 1] = ei + (or_ * wi + oi * wr);
    }
}

PF_AVX2 void
realUntangleInverseAvx2(const double *in, const double *tw, double *z,
                        size_t h)
{
    const __m256d halfv = _mm256_set1_pd(0.5);
    // i * (or, oi) = (-oi, or): swap lanes then negate the real slot.
    const __m256d rot_mask =
        _mm256_castsi256_pd(_mm256_set_epi64x(
            0, static_cast<long long>(0x8000000000000000ull), 0,
            static_cast<long long>(0x8000000000000000ull)));
    size_t k = 0;
    for (; k + 2 <= h; k += 2) {
        const __m256d a = _mm256_loadu_pd(in + 2 * k);
        const __m256d b = loadRevConjAvx2(in + 2 * (h - k - 1));
        const __m256d even =
            _mm256_mul_pd(_mm256_add_pd(a, b), halfv);
        const __m256d d =
            _mm256_mul_pd(_mm256_sub_pd(a, b), halfv);
        const __m256d w = _mm256_loadu_pd(tw + 2 * k);
        const __m256d odd = cmulConjAvx2(d, w);
        const __m256d iodd = _mm256_xor_pd(
            _mm256_permute_pd(odd, 0x5), rot_mask);
        _mm256_storeu_pd(z + 2 * k, _mm256_add_pd(even, iodd));
    }
    for (; k < h; ++k) {
        const double ar = in[2 * k], ai = in[2 * k + 1];
        const double br = in[2 * (h - k)], bi = -in[2 * (h - k) + 1];
        const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
        const double dr = 0.5 * (ar - br), di = 0.5 * (ai - bi);
        const double wr = tw[2 * k], wi = tw[2 * k + 1];
        const double or_ = dr * wr + di * wi;
        const double oi = di * wr - dr * wi;
        z[2 * k] = er - oi;
        z[2 * k + 1] = ei + or_;
    }
}

PF_AVX2 void
complexMulInPlaceAvx2(double *a, const double *b, size_t n)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m256d va = _mm256_loadu_pd(a + 2 * i);
        const __m256d vb = _mm256_loadu_pd(b + 2 * i);
        _mm256_storeu_pd(a + 2 * i, cmulAvx2(va, vb));
    }
    if (i < n)
        complexMulInPlaceScalar(a + 2 * i, b + 2 * i, n - i);
}

PF_AVX2 void
complexMacIntoAvx2(double *acc, const double *a, const double *b,
                   size_t n)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m256d va = _mm256_loadu_pd(a + 2 * i);
        const __m256d vb = _mm256_loadu_pd(b + 2 * i);
        const __m256d vc = _mm256_loadu_pd(acc + 2 * i);
        _mm256_storeu_pd(acc + 2 * i,
                         _mm256_add_pd(vc, cmulAvx2(va, vb)));
    }
    if (i < n)
        complexMacIntoScalar(acc + 2 * i, a + 2 * i, b + 2 * i, n - i);
}

PF_AVX2 void
slidingDotAvx2(const double *s, size_t n_s, const size_t *tap_idx,
               const double *tap_val, size_t n_taps, long start,
               size_t count, double *out)
{
    if (n_taps == 0) {
        slidingDotEdge(s, n_s, tap_idx, tap_val, 0, start, 0, count, out);
        return;
    }
    size_t i_lo, i_hi;
    slidingDotSafeRange(n_s, tap_idx, n_taps, start, count, i_lo,
                        i_hi);
    slidingDotEdge(s, n_s, tap_idx, tap_val, n_taps, start, 0, i_lo,
                   out);
    size_t i = i_lo;
    for (; i + 8 <= i_hi; i += 8) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        const long base = start + static_cast<long>(i);
        for (size_t t = 0; t < n_taps; ++t) {
            const double *p =
                s + (base + static_cast<long>(tap_idx[t]));
            const __m256d v = _mm256_set1_pd(tap_val[t]);
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(p), v, acc0);
            acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(p + 4), v, acc1);
        }
        _mm256_storeu_pd(out + i,
                         _mm256_add_pd(_mm256_loadu_pd(out + i), acc0));
        _mm256_storeu_pd(out + i + 4,
                         _mm256_add_pd(_mm256_loadu_pd(out + i + 4), acc1));
    }
    for (; i + 4 <= i_hi; i += 4) {
        __m256d acc = _mm256_setzero_pd();
        const long base = start + static_cast<long>(i);
        for (size_t t = 0; t < n_taps; ++t) {
            const double *p =
                s + (base + static_cast<long>(tap_idx[t]));
            acc = _mm256_fmadd_pd(_mm256_loadu_pd(p),
                                  _mm256_set1_pd(tap_val[t]), acc);
        }
        _mm256_storeu_pd(out + i,
                         _mm256_add_pd(_mm256_loadu_pd(out + i), acc));
    }
    slidingDotEdge(s, n_s, tap_idx, tap_val, n_taps, start, i, i_hi,
                   out);
    slidingDotEdge(s, n_s, tap_idx, tap_val, n_taps, start, i_hi,
                   count, out);
}

PF_AVX2 void
transposeComplexAvx2(const double *in, size_t rows, size_t cols,
                     double *out)
{
    for (size_t r0 = 0; r0 < rows; r0 += kTransposeBlock) {
        const size_t r1 =
            r0 + kTransposeBlock < rows ? r0 + kTransposeBlock : rows;
        for (size_t c0 = 0; c0 < cols; c0 += kTransposeBlock) {
            const size_t c1 = c0 + kTransposeBlock < cols
                                  ? c0 + kTransposeBlock
                                  : cols;
            // 2x2 complex micro-tiles: two loads, one lane shuffle
            // each way, two stores.
            size_t r = r0;
            for (; r + 2 <= r1; r += 2) {
                size_t c = c0;
                for (; c + 2 <= c1; c += 2) {
                    const __m256d a =
                        _mm256_loadu_pd(in + 2 * (r * cols + c));
                    const __m256d b = _mm256_loadu_pd(
                        in + 2 * ((r + 1) * cols + c));
                    _mm256_storeu_pd(
                        out + 2 * (c * rows + r),
                        _mm256_permute2f128_pd(a, b, 0x20));
                    _mm256_storeu_pd(
                        out + 2 * ((c + 1) * rows + r),
                        _mm256_permute2f128_pd(a, b, 0x31));
                }
                for (; c < c1; ++c) {
                    out[2 * (c * rows + r)] = in[2 * (r * cols + c)];
                    out[2 * (c * rows + r) + 1] =
                        in[2 * (r * cols + c) + 1];
                    out[2 * (c * rows + r + 1)] =
                        in[2 * ((r + 1) * cols + c)];
                    out[2 * (c * rows + r + 1) + 1] =
                        in[2 * ((r + 1) * cols + c) + 1];
                }
            }
            for (; r < r1; ++r) {
                for (size_t c = c0; c < c1; ++c) {
                    out[2 * (c * rows + r)] = in[2 * (r * cols + c)];
                    out[2 * (c * rows + r) + 1] =
                        in[2 * (r * cols + c) + 1];
                }
            }
        }
    }
}

PF_AVX2_EXACT void
jointIntensitySumAvx2(const double *const *s, const double *const *k,
                      size_t channels, size_t n, double *out)
{
    // Eight bins per step, the channels inside it, so the sums stay in
    // two registers and `out` is written once. hadd adds each bin's
    // re^2 and im^2 (lanes: bins 0 2 1 3); the unpacks against zero
    // restore bin order and write the zero imaginary parts.
    const __m256d zero = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256d acc0 = zero;
        __m256d acc1 = zero;
        for (size_t c = 0; c < channels; ++c) {
            const double *sc = s[c] + 2 * i;
            const double *kc = k[c] + 2 * i;
            __m256d f[4];
            for (size_t v = 0; v < 4; ++v) {
                f[v] = _mm256_add_pd(_mm256_loadu_pd(sc + 4 * v),
                                     _mm256_loadu_pd(kc + 4 * v));
                f[v] = _mm256_mul_pd(f[v], f[v]);
            }
            acc0 = _mm256_add_pd(acc0, _mm256_hadd_pd(f[0], f[1]));
            acc1 = _mm256_add_pd(acc1, _mm256_hadd_pd(f[2], f[3]));
        }
        _mm256_storeu_pd(out + 2 * i, _mm256_unpacklo_pd(acc0, zero));
        _mm256_storeu_pd(out + 2 * i + 4, _mm256_unpackhi_pd(acc0, zero));
        _mm256_storeu_pd(out + 2 * i + 8, _mm256_unpacklo_pd(acc1, zero));
        _mm256_storeu_pd(out + 2 * i + 12,
                         _mm256_unpackhi_pd(acc1, zero));
    }
    // Leftover bins one at a time, in the same operations.
    for (; i < n; ++i) {
        __m128d acc = _mm_setzero_pd();
        for (size_t c = 0; c < channels; ++c) {
            __m128d f = _mm_add_pd(_mm_loadu_pd(s[c] + 2 * i),
                                   _mm_loadu_pd(k[c] + 2 * i));
            f = _mm_mul_pd(f, f);
            acc = _mm_add_sd(acc, _mm_hadd_pd(f, f));
        }
        _mm_storeu_pd(out + 2 * i, _mm_unpacklo_pd(acc, _mm_setzero_pd()));
    }
}

#undef PF_AVX2_EXACT
#undef PF_AVX2

constexpr Kernels kAvx2Kernels = {
    butterflyStageAvx2,     deinterleaveAvx2,
    interleaveAvx2,
    realUntangleForwardAvx2, realUntangleInverseAvx2,
    complexMulInPlaceAvx2,  complexMacIntoAvx2,
    slidingDotAvx2,         transposeComplexAvx2,
    jointIntensitySumAvx2,
};

#endif // PF_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernels (AArch64). 2 doubles / 1 complex per vector; the
// vld2q/vst2q structure loads give deinterleaved access for free.
// ---------------------------------------------------------------------------

#if PF_SIMD_NEON

void
butterflyStageNeon(double *re, double *im, size_t n, size_t half,
                   size_t k_lo, size_t k_hi, const double *twre,
                   const double *twim)
{
    if (half < 2) {
        butterflyStageScalar(re, im, n, half, k_lo, k_hi, twre, twim);
        return;
    }
    const size_t len = 2 * half;
    for (size_t i = 0; i < n; i += len) {
        double *re0 = re + i;
        double *im0 = im + i;
        double *re1 = re0 + half;
        double *im1 = im0 + half;
        for (size_t k = k_lo; k < k_hi; k += 2) {
            const float64x2_t wr = vld1q_f64(twre + k);
            const float64x2_t wi = vld1q_f64(twim + k);
            const float64x2_t xr = vld1q_f64(re1 + k);
            const float64x2_t xi = vld1q_f64(im1 + k);
            const float64x2_t vr =
                vfmsq_f64(vmulq_f64(xr, wr), xi, wi);
            const float64x2_t vi =
                vfmaq_f64(vmulq_f64(xi, wr), xr, wi);
            const float64x2_t ur = vld1q_f64(re0 + k);
            const float64x2_t ui = vld1q_f64(im0 + k);
            vst1q_f64(re0 + k, vaddq_f64(ur, vr));
            vst1q_f64(im0 + k, vaddq_f64(ui, vi));
            vst1q_f64(re1 + k, vsubq_f64(ur, vr));
            vst1q_f64(im1 + k, vsubq_f64(ui, vi));
        }
    }
}

void
deinterleaveNeon(const double *z, const uint32_t *perm, size_t n,
                 double *re, double *im)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float64x2_t a = vld1q_f64(z + 2 * perm[i]);     // r0 i0
        const float64x2_t b = vld1q_f64(z + 2 * perm[i + 1]); // r1 i1
        vst1q_f64(re + i, vzip1q_f64(a, b));
        vst1q_f64(im + i, vzip2q_f64(a, b));
    }
    for (; i < n; ++i) {
        re[i] = z[2 * perm[i]];
        im[i] = z[2 * perm[i] + 1];
    }
}

void
interleaveNeon(const double *re, const double *im, size_t first,
               size_t count, double s, double *out)
{
    const size_t end = first + count;
    size_t j = first;
    if (j % 2 != 0 && j < end) // odd start: one imaginary part first
        *out++ = s * im[j++ / 2];
    for (; j + 4 <= end; j += 4, out += 4) {
        float64x2x2_t v;
        v.val[0] = vmulq_n_f64(vld1q_f64(re + j / 2), s);
        v.val[1] = vmulq_n_f64(vld1q_f64(im + j / 2), s);
        vst2q_f64(out, v);
    }
    for (; j < end; ++j)
        *out++ = s * ((j % 2 == 0) ? re[j / 2] : im[j / 2]);
}

void
realUntangleForwardNeon(const double *z, const double *tw, double *out,
                        size_t h)
{
    size_t k = 1;
    for (; k + 2 <= h; k += 2) {
        // Two bins via deinterleaved loads: a = z[k], z[k+1];
        // b = conj(z[h-k]), conj(z[h-k-1]) — reverse the pair.
        const float64x2x2_t av = vld2q_f64(z + 2 * k);
        const float64x2x2_t braw = vld2q_f64(z + 2 * (h - k - 1));
        const float64x2_t br = vextq_f64(braw.val[0], braw.val[0], 1);
        const float64x2_t bi =
            vnegq_f64(vextq_f64(braw.val[1], braw.val[1], 1));
        const float64x2_t er =
            vmulq_n_f64(vaddq_f64(av.val[0], br), 0.5);
        const float64x2_t ei =
            vmulq_n_f64(vaddq_f64(av.val[1], bi), 0.5);
        const float64x2_t or_ =
            vmulq_n_f64(vsubq_f64(av.val[1], bi), 0.5);
        const float64x2_t oi =
            vmulq_n_f64(vsubq_f64(br, av.val[0]), 0.5);
        const float64x2x2_t wv = vld2q_f64(tw + 2 * k);
        float64x2x2_t res;
        res.val[0] = vaddq_f64(
            er, vfmsq_f64(vmulq_f64(or_, wv.val[0]), oi, wv.val[1]));
        res.val[1] = vaddq_f64(
            ei, vfmaq_f64(vmulq_f64(oi, wv.val[0]), or_, wv.val[1]));
        vst2q_f64(out + 2 * k, res);
    }
    for (; k < h; ++k) {
        const double ar = z[2 * k], ai = z[2 * k + 1];
        const double br = z[2 * (h - k)], bi = -z[2 * (h - k) + 1];
        const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
        const double or_ = 0.5 * (ai - bi);
        const double oi = -0.5 * (ar - br);
        const double wr = tw[2 * k], wi = tw[2 * k + 1];
        out[2 * k] = er + (or_ * wr - oi * wi);
        out[2 * k + 1] = ei + (or_ * wi + oi * wr);
    }
}

void
realUntangleInverseNeon(const double *in, const double *tw, double *z,
                        size_t h)
{
    size_t k = 0;
    for (; k + 2 <= h; k += 2) {
        const float64x2x2_t av = vld2q_f64(in + 2 * k);
        const float64x2x2_t braw = vld2q_f64(in + 2 * (h - k - 1));
        const float64x2_t br = vextq_f64(braw.val[0], braw.val[0], 1);
        const float64x2_t bi =
            vnegq_f64(vextq_f64(braw.val[1], braw.val[1], 1));
        const float64x2_t er =
            vmulq_n_f64(vaddq_f64(av.val[0], br), 0.5);
        const float64x2_t ei =
            vmulq_n_f64(vaddq_f64(av.val[1], bi), 0.5);
        const float64x2_t dr =
            vmulq_n_f64(vsubq_f64(av.val[0], br), 0.5);
        const float64x2_t di =
            vmulq_n_f64(vsubq_f64(av.val[1], bi), 0.5);
        const float64x2x2_t wv = vld2q_f64(tw + 2 * k);
        const float64x2_t or_ =
            vfmaq_f64(vmulq_f64(dr, wv.val[0]), di, wv.val[1]);
        const float64x2_t oi =
            vfmsq_f64(vmulq_f64(di, wv.val[0]), dr, wv.val[1]);
        float64x2x2_t res;
        res.val[0] = vsubq_f64(er, oi);
        res.val[1] = vaddq_f64(ei, or_);
        vst2q_f64(z + 2 * k, res);
    }
    for (; k < h; ++k) {
        const double ar = in[2 * k], ai = in[2 * k + 1];
        const double br = in[2 * (h - k)], bi = -in[2 * (h - k) + 1];
        const double er = 0.5 * (ar + br), ei = 0.5 * (ai + bi);
        const double dr = 0.5 * (ar - br), di = 0.5 * (ai - bi);
        const double wr = tw[2 * k], wi = tw[2 * k + 1];
        const double or_ = dr * wr + di * wi;
        const double oi = di * wr - dr * wi;
        z[2 * k] = er - oi;
        z[2 * k + 1] = ei + or_;
    }
}

void
complexMulInPlaceNeon(double *a, const double *b, size_t n)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float64x2x2_t av = vld2q_f64(a + 2 * i);
        const float64x2x2_t bv = vld2q_f64(b + 2 * i);
        float64x2x2_t res;
        res.val[0] = vfmsq_f64(vmulq_f64(av.val[0], bv.val[0]),
                               av.val[1], bv.val[1]);
        res.val[1] = vfmaq_f64(vmulq_f64(av.val[1], bv.val[0]),
                               av.val[0], bv.val[1]);
        vst2q_f64(a + 2 * i, res);
    }
    if (i < n)
        complexMulInPlaceScalar(a + 2 * i, b + 2 * i, n - i);
}

void
complexMacIntoNeon(double *acc, const double *a, const double *b,
                   size_t n)
{
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float64x2x2_t av = vld2q_f64(a + 2 * i);
        const float64x2x2_t bv = vld2q_f64(b + 2 * i);
        float64x2x2_t cv = vld2q_f64(acc + 2 * i);
        cv.val[0] =
            vaddq_f64(cv.val[0],
                      vfmsq_f64(vmulq_f64(av.val[0], bv.val[0]),
                                av.val[1], bv.val[1]));
        cv.val[1] =
            vaddq_f64(cv.val[1],
                      vfmaq_f64(vmulq_f64(av.val[1], bv.val[0]),
                                av.val[0], bv.val[1]));
        vst2q_f64(acc + 2 * i, cv);
    }
    if (i < n)
        complexMacIntoScalar(acc + 2 * i, a + 2 * i, b + 2 * i, n - i);
}

void
slidingDotNeon(const double *s, size_t n_s, const size_t *tap_idx,
               const double *tap_val, size_t n_taps, long start,
               size_t count, double *out)
{
    if (n_taps == 0) {
        slidingDotEdge(s, n_s, tap_idx, tap_val, 0, start, 0, count, out);
        return;
    }
    size_t i_lo, i_hi;
    slidingDotSafeRange(n_s, tap_idx, n_taps, start, count, i_lo,
                        i_hi);
    slidingDotEdge(s, n_s, tap_idx, tap_val, n_taps, start, 0, i_lo,
                   out);
    size_t i = i_lo;
    for (; i + 4 <= i_hi; i += 4) {
        float64x2_t acc0 = vdupq_n_f64(0.0);
        float64x2_t acc1 = vdupq_n_f64(0.0);
        const long base = start + static_cast<long>(i);
        for (size_t t = 0; t < n_taps; ++t) {
            const double *p =
                s + (base + static_cast<long>(tap_idx[t]));
            acc0 = vfmaq_n_f64(acc0, vld1q_f64(p), tap_val[t]);
            acc1 = vfmaq_n_f64(acc1, vld1q_f64(p + 2), tap_val[t]);
        }
        vst1q_f64(out + i, vaddq_f64(vld1q_f64(out + i), acc0));
        vst1q_f64(out + i + 2, vaddq_f64(vld1q_f64(out + i + 2), acc1));
    }
    slidingDotEdge(s, n_s, tap_idx, tap_val, n_taps, start, i, i_hi,
                   out);
    slidingDotEdge(s, n_s, tap_idx, tap_val, n_taps, start, i_hi,
                   count, out);
}

void
transposeComplexNeon(const double *in, size_t rows, size_t cols,
                     double *out)
{
    // One complex is exactly one float64x2 — the micro-tile is a
    // plain vector copy per element, blocked for locality.
    for (size_t r0 = 0; r0 < rows; r0 += kTransposeBlock) {
        const size_t r1 =
            r0 + kTransposeBlock < rows ? r0 + kTransposeBlock : rows;
        for (size_t c0 = 0; c0 < cols; c0 += kTransposeBlock) {
            const size_t c1 = c0 + kTransposeBlock < cols
                                  ? c0 + kTransposeBlock
                                  : cols;
            for (size_t r = r0; r < r1; ++r)
                for (size_t c = c0; c < c1; ++c)
                    vst1q_f64(out + 2 * (c * rows + r),
                              vld1q_f64(in + 2 * (r * cols + c)));
        }
    }
}

constexpr Kernels kNeonKernels = {
    butterflyStageNeon,     deinterleaveNeon,
    interleaveNeon,
    realUntangleForwardNeon, realUntangleInverseNeon,
    complexMulInPlaceNeon,  complexMacIntoNeon,
    slidingDotNeon,         transposeComplexNeon,
    // No AArch64 host has verified a vector version of this exact
    // loop; the scalar one is the reference either way.
    jointIntensitySumScalar,
};

#endif // PF_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

const Kernels *
tableFor(Level level)
{
    switch (level) {
#if PF_SIMD_X86
      case Level::Avx2:
        return &kAvx2Kernels;
#endif
#if PF_SIMD_NEON
      case Level::Neon:
        return &kNeonKernels;
#endif
      default:
        return &kScalarKernels;
    }
}

struct DispatchState
{
    std::atomic<const Kernels *> table;
    std::atomic<Level> level;
};

Level
resolveInitialLevel()
{
    Level level = bestSupportedLevel();
    const char *env = std::getenv("PF_SIMD");
    if (env == nullptr || std::strcmp(env, "auto") == 0 ||
        env[0] == '\0')
        return level;
    Level requested;
    if (!parseLevel(env, requested)) {
        std::fprintf(stderr,
                     "photofourier: PF_SIMD=%s not recognized "
                     "(auto|avx2|neon|scalar); using %s\n",
                     env, levelName(level));
        return level;
    }
    if (!levelSupported(requested)) {
        std::fprintf(stderr,
                     "photofourier: PF_SIMD=%s not supported on this "
                     "host; using %s\n",
                     env, levelName(level));
        return level;
    }
    return requested;
}

DispatchState &
dispatchState()
{
    // Thread-safe lazy init (C++ magic static); the members are
    // atomics so later forceLevel() swaps race cleanly with readers.
    static DispatchState state = [] {
        const Level level = resolveInitialLevel();
        return DispatchState{{tableFor(level)}, {level}};
    }();
    return state;
}

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Avx2:
        return "avx2";
      case Level::Neon:
        return "neon";
      default:
        return "scalar";
    }
}

bool
levelSupported(Level level)
{
    switch (level) {
      case Level::Scalar:
        return true;
      case Level::Avx2:
#if PF_SIMD_X86
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
      case Level::Neon:
#if PF_SIMD_NEON
        return true;
#else
        return false;
#endif
    }
    return false;
}

Level
bestSupportedLevel()
{
    if (levelSupported(Level::Avx2))
        return Level::Avx2;
    if (levelSupported(Level::Neon))
        return Level::Neon;
    return Level::Scalar;
}

Level
activeLevel()
{
    return dispatchState().level.load(std::memory_order_relaxed);
}

const char *
activeLevelName()
{
    return levelName(activeLevel());
}

bool
parseLevel(const char *name, Level &out)
{
    if (name == nullptr)
        return false;
    if (std::strcmp(name, "scalar") == 0) {
        out = Level::Scalar;
        return true;
    }
    if (std::strcmp(name, "avx2") == 0) {
        out = Level::Avx2;
        return true;
    }
    if (std::strcmp(name, "neon") == 0) {
        out = Level::Neon;
        return true;
    }
    return false;
}

bool
forceLevel(Level level)
{
    if (!levelSupported(level))
        return false;
    DispatchState &state = dispatchState();
    // Table first, then the level tag: a reader that sees the new
    // level can only observe the new (or a newer) table, and either
    // table computes correct results regardless.
    state.table.store(tableFor(level), std::memory_order_release);
    state.level.store(level, std::memory_order_release);
    return true;
}

const Kernels &
kernels()
{
    return *dispatchState().table.load(std::memory_order_acquire);
}

const Kernels &
scalarKernels()
{
    return kScalarKernels;
}

} // namespace simd
} // namespace photofourier
