#include "photonics/converters.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"

namespace photofourier {
namespace photonics {

Quantizer::Quantizer(int bits, double range)
{
    pf_assert(bits >= kMinBits && bits <= kMaxBits,
              "quantizer bits out of range: ", bits);
    pf_assert(range >= 0.0, "quantizer range must be >= 0");
    max_code_ = (int64_t{1} << (bits - 1)) - 1;
    step_ = range > 0.0 ? range / static_cast<double>(max_code_) : 0.0;
}

ConverterPowerModel::ConverterPowerModel(double power_ref_mw,
                                         double freq_ref_ghz)
    : power_ref_mw_(power_ref_mw), freq_ref_ghz_(freq_ref_ghz)
{
    pf_assert(power_ref_mw > 0.0 && freq_ref_ghz > 0.0,
              "converter reference point must be positive");
}

double
ConverterPowerModel::powerAtMw(double freq_ghz) const
{
    pf_assert(freq_ghz > 0.0, "frequency must be positive");
    return power_ref_mw_ * freq_ghz / freq_ref_ghz_;
}

double
ConverterPowerModel::energyPerSamplePj(double freq_ghz) const
{
    // Linear power scaling implies constant energy per sample.
    (void)freq_ghz;
    return units::energyPerCyclePj(power_ref_mw_, freq_ref_ghz_);
}

double
ConverterPowerModel::waldenFomFj(int bits) const
{
    // FOM = P / (2^bits * fs); canonical units give pJ, convert to fJ.
    const double steps = std::pow(2.0, bits);
    const double energy_pj =
        units::energyPerCyclePj(power_ref_mw_, freq_ref_ghz_);
    return energy_pj / steps * units::kFjPerPj;
}

} // namespace photonics
} // namespace photofourier
