/**
 * @file
 * DAC/ADC models: quantization transfer functions and power scaling.
 *
 * Two roles:
 *  1. Functional — quantize values the way the 8-bit converters in the
 *     PFCU input/readout paths do, so accuracy experiments (Table I,
 *     Figure 7) see the real precision loss.
 *  2. Power — scale converter power linearly with sample rate (the
 *     assumption stated in Section V-D) and via the Walden
 *     figure-of-merit across designs (Section VI-A).
 */

#ifndef PHOTOFOURIER_PHOTONICS_CONVERTERS_HH
#define PHOTOFOURIER_PHOTONICS_CONVERTERS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace photofourier {
namespace photonics {

/**
 * Uniform symmetric quantizer used for both DACs and ADCs.
 *
 * Maps [-range, +range] onto 2^bits - 1 signed levels (mid-tread). Values
 * outside the range saturate, which matches converter clipping.
 */
class Quantizer
{
  public:
    /** Resolutions the constructor accepts. */
    static constexpr int kMinBits = 2;
    static constexpr int kMaxBits = 32;

    /** True when `bits` is a usable converter or modulator setting:
     *  0 (ideal, no quantization) or kMinBits..kMaxBits. */
    static constexpr bool
    validSetting(int bits)
    {
        return bits == 0 || (bits >= kMinBits && bits <= kMaxBits);
    }

    /**
     * @param bits  resolution in bits (kMinBits..kMaxBits)
     * @param range full-scale amplitude; 0 disables quantization
     *              (an "ideal converter" for ablations)
     */
    Quantizer(int bits, double range);

    /** Quantize one value (returns the reconstructed analog level). */
    double
    quantize(double value) const
    {
        return ideal() ? value : dequantize(code(value));
    }

    /** Integer code for a value, in [-(2^(b-1)-1), 2^(b-1)-1]:
     *  the nearest level, ties away from zero (llround); values past
     *  full scale, infinities included, saturate to the rail of their
     *  sign, and NaN gives code 0. Inline: the engines quantize every
     *  activation and every ADC readout. */
    int64_t
    code(double value) const
    {
        if (ideal())
            return 0;
        // Saturate in double, before the integer conversion: an
        // integer conversion of a value past the int64 range (or of
        // inf/NaN) is unspecified and in practice LLONG_MIN, which
        // would pin +huge to the negative rail. NaN (no light to
        // compare) reads as code 0.
        const double scaled = value / step_;
        if (std::isnan(scaled))
            return 0;
        const double rail = static_cast<double>(max_code_);
        const double clamped = std::clamp(scaled, -rail, rail);
        // llround(clamped), without the libm call: truncate (exact,
        // |clamped| <= 2^31), then round on the fractional part, which
        // the subtraction gives exactly.
        const int64_t whole = static_cast<int64_t>(clamped);
        const double frac = clamped - static_cast<double>(whole);
        return whole + (frac >= 0.5) - (frac <= -0.5);
    }

    /** Reconstruction level for an integer code. */
    double
    dequantize(int64_t code) const
    {
        return static_cast<double>(code) * step_;
    }

    /** True when this quantizer is a pass-through (range == 0). */
    bool ideal() const { return step_ == 0.0; }

  private:
    double step_;
    int64_t max_code_;
};

/**
 * Converter power model.
 *
 * power(f) = power_ref * f / f_ref  — linear frequency scaling, the
 * assumption used in the Section V-D parallelization analysis and when
 * the paper derives its 625 MHz ADC figure from a 10 GS/s part.
 */
class ConverterPowerModel
{
  public:
    /**
     * @param power_ref_mw power at the reference frequency
     * @param freq_ref_ghz reference frequency
     */
    ConverterPowerModel(double power_ref_mw, double freq_ref_ghz);

    /** Power (mW) at the given sample rate. */
    double powerAtMw(double freq_ghz) const;

    /** Energy per conversion (pJ) at the given sample rate. */
    double energyPerSamplePj(double freq_ghz) const;

    /**
     * Walden figure of merit (fJ per conversion-step) for an 8-bit
     * converter at the reference point: FOM = P / (2^bits * fs).
     */
    double waldenFomFj(int bits = 8) const;

  private:
    double power_ref_mw_;
    double freq_ref_ghz_;
};

} // namespace photonics
} // namespace photofourier

#endif // PHOTOFOURIER_PHOTONICS_CONVERTERS_HH
