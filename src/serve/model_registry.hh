/**
 * @file
 * Named model prototypes and per-worker replica instantiation.
 *
 * The registry owns one prototype nn::Network per model name. Serving
 * workers never share a live network (stateful layers cache
 * activations during forward), so each worker clones its own replica
 * via instantiateReplica(). The cluster's RegisterModel message
 * carries weights in the nn/serialization format.
 *
 * Names only ever gain or replace prototypes — they are never removed
 * — so a worker that has seen a name may instantiate it later without
 * re-checking. Every re-registration of a name bumps that name's
 * version; workers compare their replica's version against version()
 * and re-clone when behind, so re-registering a model takes effect on
 * the next batch without a server restart.
 *
 * A model may also carry a PhotoFourierEngineConfig override: replicas
 * of that model execute on an engine built from the override, which
 * wins over the server-wide EngineFactory. This is how a single server
 * serves e.g. one model on noisy photonic numerics next to another on
 * the clean digital path.
 */

#ifndef PHOTOFOURIER_SERVE_MODEL_REGISTRY_HH
#define PHOTOFOURIER_SERVE_MODEL_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nn/conv_engine.hh"
#include "nn/network.hh"

namespace photofourier {
namespace serve {

/** Thread-safe name → prototype network store. */
class ModelRegistry
{
  public:
    /**
     * A freshly cloned replica plus the registration state it was
     * cloned from, read atomically under the registry lock.
     */
    struct Replica
    {
        nn::Network network;
        uint64_t version = 0;
        std::optional<nn::PhotoFourierEngineConfig> engine_override;

        /**
         * The registration's shared kernel-spectrum cache: every
         * replica of this (name, version) binds its engines to the
         * same cache, so a layer's spectra are transformed once per
         * registration, not once per worker. A version bump allocates
         * a fresh cache — re-registered weights can never read stale
         * spectra (entries are content-addressed anyway; the swap
         * bounds memory).
         */
        std::shared_ptr<tiling::KernelSpectrumCache> spectra;

        /**
         * The engine built from engine_override on `spectra` (null
         * without an override), one per registration: engines are
         * const and thread-safe, so every replica shares it.
         */
        std::shared_ptr<const nn::ConvEngine> override_engine;
    };

    /**
     * Register (or replace) a prototype under `name`. Bumps the
     * name's version and clears any engine override — the override
     * belongs to the registration, not the name.
     */
    void add(const std::string &name, nn::Network prototype);

    /**
     * Register (or replace) a prototype whose replicas must run on an
     * engine built from `engine_override` (wins over the server-wide
     * EngineFactory).
     */
    void add(const std::string &name, nn::Network prototype,
             nn::PhotoFourierEngineConfig engine_override);

    /**
     * The kernel-spectrum cache of `name`'s current registration
     * (null for unknown names). Replaced — never mutated in place —
     * on every version bump.
     */
    std::shared_ptr<tiling::KernelSpectrumCache> spectrumCache(
        const std::string &name) const;

    /**
     * Why an input of `shape` cannot run on `name`'s current
     * registration, naming the model and the refusing layer; empty
     * when it can (nn::Network::shapeError). The conv layers are
     * checked against the registration's override engine, else
     * `engine` (the engine replicas will bind; null = the
     * prototype's own).
     */
    std::string inputError(const std::string &name, const nn::Shape &shape,
                           const nn::ConvEngine *engine) const;

    /** True when `name` has a prototype. */
    bool has(const std::string &name) const;

    /**
     * Monotonic registration version of `name` (0 when unknown,
     * starts at 1, bumped by every add).
     */
    uint64_t version(const std::string &name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /** Registered (name, version) pairs, sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> namesWithVersions()
        const;

    /** Number of registered models. */
    size_t size() const;

    /**
     * Independent deep-copy replica of the prototype (panics on an
     * unknown name — guard with has()), plus the version and engine
     * override it was cloned under, read in one critical section so a
     * worker can cache the version and detect staleness later.
     */
    Replica instantiateReplica(const std::string &name) const;

  private:
    struct Entry
    {
        nn::Network prototype;
        uint64_t version = 0;
        std::optional<nn::PhotoFourierEngineConfig> engine_override;
        std::shared_ptr<tiling::KernelSpectrumCache> spectra;
        std::shared_ptr<const nn::ConvEngine> override_engine;
    };

    /** add() body; caller composes the override. */
    void addEntry(const std::string &name, nn::Network prototype,
                  std::optional<nn::PhotoFourierEngineConfig> engine);

    mutable std::mutex mutex_;
    std::map<std::string, Entry> models_;
};

} // namespace serve
} // namespace photofourier

#endif // PHOTOFOURIER_SERVE_MODEL_REGISTRY_HH
