#include "serve/model_registry.hh"

#include <utility>

#include "common/logging.hh"

namespace photofourier {
namespace serve {

namespace {

/** The engine a registration's override runs on (null without one). */
std::shared_ptr<const nn::ConvEngine>
overrideEngine(const std::optional<nn::PhotoFourierEngineConfig> &config,
               std::shared_ptr<tiling::KernelSpectrumCache> spectra)
{
    if (!config)
        return nullptr;
    return std::make_shared<nn::PhotoFourierEngine>(*config,
                                                    std::move(spectra));
}

} // namespace

void
ModelRegistry::addEntry(
    const std::string &name, nn::Network prototype,
    std::optional<nn::PhotoFourierEngineConfig> engine)
{
    pf_assert(!name.empty(), "registering a model with an empty name");
    pf_assert(prototype.layerCount() > 0, "registering empty network '",
              name, "'");
    // Fresh spectra per registration (allocated outside the lock):
    // new weights start from an empty, independently owned cache;
    // replicas of the previous version keep their old one alive until
    // they re-clone.
    auto spectra = std::make_shared<tiling::KernelSpectrumCache>();
    auto override_engine = overrideEngine(engine, spectra);
    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = models_[name];
    entry.prototype = std::move(prototype);
    ++entry.version;
    entry.engine_override = std::move(engine);
    entry.spectra = std::move(spectra);
    entry.override_engine = std::move(override_engine);
}

void
ModelRegistry::add(const std::string &name, nn::Network prototype)
{
    addEntry(name, std::move(prototype), std::nullopt);
}

void
ModelRegistry::add(const std::string &name, nn::Network prototype,
                   nn::PhotoFourierEngineConfig engine_override)
{
    addEntry(name, std::move(prototype), std::move(engine_override));
}

std::shared_ptr<tiling::KernelSpectrumCache>
ModelRegistry::spectrumCache(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    return it != models_.end() ? it->second.spectra : nullptr;
}

std::string
ModelRegistry::inputError(const std::string &name, const nn::Shape &shape,
                          const nn::ConvEngine *engine) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    if (it == models_.end())
        return "unknown model '" + name + "'";
    const Entry &entry = it->second;
    const std::string invalid = entry.prototype.shapeError(
        shape, entry.override_engine ? entry.override_engine.get() : engine);
    if (invalid.empty())
        return {};
    return "input " + nn::toString(shape) + " does not fit model '" + name +
           "': " + invalid;
}

bool
ModelRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return models_.count(name) > 0;
}

uint64_t
ModelRegistry::version(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    return it != models_.end() ? it->second.version : 0;
}

std::vector<std::string>
ModelRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(models_.size());
    for (const auto &[name, entry] : models_)
        out.push_back(name);
    return out;
}

std::vector<std::pair<std::string, uint64_t>>
ModelRegistry::namesWithVersions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(models_.size());
    for (const auto &[name, entry] : models_)
        out.emplace_back(name, entry.version);
    return out;
}

size_t
ModelRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return models_.size();
}

ModelRegistry::Replica
ModelRegistry::instantiateReplica(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    pf_assert(it != models_.end(), "instantiate of unknown model '",
              name, "'");
    Replica replica;
    replica.network = it->second.prototype.clone();
    replica.version = it->second.version;
    replica.engine_override = it->second.engine_override;
    replica.spectra = it->second.spectra;
    replica.override_engine = it->second.override_engine;
    return replica;
}

} // namespace serve
} // namespace photofourier
