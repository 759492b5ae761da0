/**
 * @file
 * Portable SIMD kernels with runtime CPU-feature dispatch.
 *
 * Every digital and optical path in the simulator funnels through a
 * handful of inner loops — the radix-2 butterfly passes, the r2c/c2r
 * Hermitian untangle, the sliding dot product, the cache-blocked
 * complex transpose, the pointwise spectral multiplies, and the JTC's
 * Fourier-plane intensity summed over a channel group. This
 * module provides those loops in three flavors behind one function-
 * pointer table:
 *
 *  - scalar:  plain C++, the reference semantics every other flavor
 *             is tested against (and the fallback on unknown ISAs),
 *  - avx2:    AVX2 + FMA double-precision kernels (x86-64), compiled
 *             with per-function target attributes so the rest of the
 *             tree needs no special flags,
 *  - neon:    AArch64 Advanced SIMD (float64x2) kernels.
 *
 * Dispatch is resolved once per process on first use: the PF_SIMD
 * environment variable ("auto" | "avx2" | "neon" | "scalar", default
 * auto) is clamped to what the CPU actually supports, and the chosen
 * table is published through an atomic pointer. Tests and benches can
 * re-force the level at runtime with forceLevel(); swaps are atomic,
 * so kernels running concurrently on other threads simply complete on
 * whichever (correct) table they loaded.
 *
 * Layering note: this file and simd.cc are a *leaf* — they depend
 * only on <cstddef>, <cstdint> and the C intrinsic headers, sitting
 * below signal/ in the layer order even though they live under
 * src/arch/ (the ISA of the host CPU is architecture, not signal
 * processing).
 *
 * Numerical contract: vector kernels compute the same formulas as the
 * scalar ones but may contract multiply-adds into FMAs and re-
 * associate the independent lanes of a loop, so results are NOT
 * guaranteed bit-identical across levels. The guaranteed bound,
 * pinned by tests/test_simd.cc at every dispatch level, is
 *
 *     |vector - scalar| <= 8 * eps * (1 + log2(n)) * max|input|
 *
 * per element for the transform-shaped kernels (butterfly stages,
 * untangle, spectral multiplies) and 8 * eps * n_taps * max|s|*max|k|
 * for the sliding dot product. Exact zeros (untouched taps, padding)
 * stay exact zeros at every level.
 *
 * Exact kernels, pinned bit for bit by the same suite: the interleave
 * round trip (pure data movement, and one product per value when
 * scaled), jointIntensitySum at every level
 * (separate multiplies and adds, channels summed in ascending order),
 * and the AVX2 butterfly stages with half = 1 and half = 2.
 */

#ifndef PHOTOFOURIER_ARCH_SIMD_HH
#define PHOTOFOURIER_ARCH_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace photofourier {
namespace simd {

/** Instruction-set levels the dispatcher can select. */
enum class Level {
    Scalar = 0, ///< plain C++ loops — always available
    Avx2 = 1,   ///< x86-64 AVX2 + FMA, 4 doubles per vector
    Neon = 2,   ///< AArch64 Advanced SIMD, 2 doubles per vector
};

/** Lower-case name for a level ("scalar", "avx2", "neon"). */
const char *levelName(Level level);

/** True when this host can execute kernels at `level`. */
bool levelSupported(Level level);

/** The highest level this host supports (Scalar when nothing else). */
Level bestSupportedLevel();

/**
 * The level the kernel table currently dispatches to. Resolved on
 * first use from PF_SIMD (unsupported or unknown values fall back to
 * auto-detection with a one-line stderr warning).
 */
Level activeLevel();

/** levelName(activeLevel()) — stamped into BENCH provenance. */
const char *activeLevelName();

/**
 * Parse a PF_SIMD-style string. Returns true and sets `out` for
 * "scalar" | "avx2" | "neon"; returns false for anything else
 * (including "auto" — auto is not a level, it is the absence of an
 * override).
 */
bool parseLevel(const char *name, Level &out);

/**
 * Force the dispatch level for this process (tests, benches, the
 * PF_SIMD plumbing). Returns false — leaving the level unchanged —
 * when the host does not support `level`. Thread-safe: the table swap
 * is atomic, and in-flight kernels finish on the table they loaded.
 */
bool forceLevel(Level level);

/**
 * Butterfly ranges narrower than a whole stage start and end on
 * multiples of this many butterflies (one AVX2 vector), so a pruned
 * stage never sends a butterfly down a different lane path.
 */
constexpr size_t kButterflyRangeGrain = 4;

/**
 * The kernel table. All pointers are non-null at every level; complex
 * data is interleaved (re, im) pairs of doubles — the layout
 * std::complex<double> guarantees — and no pointer may alias its
 * output unless the kernel is documented in-place.
 */
struct Kernels
{
    /**
     * One radix-2 butterfly stage over split (SoA) arrays: for each
     * block of len = 2*half elements and each k in [k_lo, k_hi),
     *
     *   v = (re1[k], im1[k]) * (twre[k], twim[k])
     *   (re0[k], im0[k]), (re1[k], im1[k]) = u + v, u - v
     *
     * where re0 = re + block, re1 = re0 + half. n must be a multiple
     * of 2*half; twre/twim hold the stage's `half` twiddles,
     * contiguous (pre-splatted by FftPlan). The whole stage is the
     * range [0, half). A narrower range skips the butterflies whose
     * outputs the caller never reads: k_lo and k_hi must then be
     * multiples of kButterflyRangeGrain inside [0, half) (a stage
     * narrower than the grain always runs whole), so every butterfly
     * that runs takes the arithmetic the whole stage gives it.
     */
    void (*butterflyStage)(double *re, double *im, size_t n,
                           size_t half, size_t k_lo, size_t k_hi,
                           const double *twre, const double *twim);

    /**
     * Split n interleaved complexes into re/im, gathered through a
     * permutation: re[i], im[i] = z[perm[i]] for i in [0, n). perm is
     * the FFT's bit-reversal table, so the gather is the radix-2
     * transform's reordering pass. z must not overlap re or im.
     */
    void (*deinterleave)(const double *z, const uint32_t *perm, size_t n,
                         double *re, double *im);

    /**
     * Merge re/im back into interleaved doubles, scaled: out[j] = s *
     * x[first + j] for j in [0, count), where x is the interleaved
     * sequence re[0], im[0], re[1], im[1], ... Each value is one
     * product, so s = 1 moves the data exactly. out may alias the
     * interleaved array re/im were split from, never re or im.
     */
    void (*interleave)(const double *re, const double *im, size_t first,
                       size_t count, double s, double *out);

    /**
     * Forward r2c Hermitian untangle, bins k in [1, h) (the caller
     * handles the purely real k = 0 and k = h endpoints):
     *
     *   a = z[k]; b = conj(z[h-k])
     *   out[k] = (a + b)/2 + tw[k] * (-i/2) * (a - b)
     *
     * z: h interleaved complexes; tw, out: h+1 interleaved complexes.
     * out may not alias z.
     */
    void (*realUntangleForward)(const double *z, const double *tw,
                                double *out, size_t h);

    /**
     * Inverse untangle, bins k in [0, h): rebuild the packed
     * half-size spectrum from an h+1-bin Hermitian half-spectrum:
     *
     *   a = in[k]; b = conj(in[h-k])
     *   z[k] = (a + b)/2 + i * ((a - b)/2 * conj(tw[k]))
     *
     * in, tw: h+1 interleaved complexes; z: h. z may not alias in.
     */
    void (*realUntangleInverse)(const double *in, const double *tw,
                                double *z, size_t h);

    /** Pointwise complex product a[i] *= b[i], n complexes, in-place
     *  in a. a and b must not partially overlap. */
    void (*complexMulInPlace)(double *a, const double *b, size_t n);

    /** Pointwise complex multiply-accumulate acc[i] += a[i] * b[i],
     *  n complexes. acc must not alias a or b. */
    void (*complexMacInto)(double *acc, const double *a,
                           const double *b, size_t n);

    /**
     * Sliding dot product with zero extension outside [0, n_s), added
     * into out:
     *
     *   out[i] += sum_t s[start + i + tap_idx[t]] * tap_val[t]
     *
     * for i in [0, count), terms whose index falls outside the signal
     * contributing exactly 0. Each sum starts from 0.0 and is added to
     * out[i] once, so sliding into a prefilled out is bit for bit the
     * prefill plus the window slid into zeros (zero taps add 0.0), and
     * channels slid into one zero-filled out sum their windows in call
     * order. tap_idx must be sorted ascending (the natural order of a
     * kernel's nonzero taps). out aliases nothing.
     */
    void (*slidingDot)(const double *s, size_t n_s,
                       const size_t *tap_idx, const double *tap_val,
                       size_t n_taps, long start, size_t count,
                       double *out);

    /**
     * Cache-blocked out-of-place complex transpose: in is rows x cols
     * interleaved complexes, out becomes cols x rows. in and out must
     * not overlap.
     */
    void (*transposeComplex)(const double *in, size_t rows,
                             size_t cols, double *out);

    /**
     * The Fourier-plane intensity a group of joint fields integrates
     * on one photodetector row (JTC temporal accumulation):
     *
     *   out[i] = (sum_c |s[c][i] + k[c][i]|^2, 0)
     *
     * for i in [0, n). s and k each hold `channels` (>= 1) pointers to
     * n interleaved complexes. Channels are summed in ascending order
     * and each term is re*re + im*im, never fused into an FMA, so
     * every level is bit-identical to the scalar loop. out (n
     * complexes) aliases no input.
     */
    void (*jointIntensitySum)(const double *const *s,
                              const double *const *k, size_t channels,
                              size_t n, double *out);
};

/**
 * The active kernel table (one relaxed atomic load). Hold the
 * reference only briefly — a concurrent forceLevel() swap is legal
 * and the old table stays valid, but mixing tables across a long
 * computation wastes the consistency the single load buys.
 */
const Kernels &kernels();

/** The scalar reference table, always available — equivalence tests
 *  compare every other level against these exact semantics. */
const Kernels &scalarKernels();

} // namespace simd
} // namespace photofourier

#endif // PHOTOFOURIER_ARCH_SIMD_HH
