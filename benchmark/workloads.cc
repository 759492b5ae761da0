#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <utility>

#include "arch/accel_config.hh"
#include "bench.hh"
#include "cluster/protocol.hh"
#include "common/logging.hh"
#include "core/photofourier.hh"

namespace pfbench {

namespace nn = pf::nn;
namespace obs = pf::obs;
namespace serve = pf::serve;

namespace {

constexpr size_t kZooWidth = 8;
constexpr uint64_t kZooSeed = 4242;

pf::PhotoFourierAccelerator
accelerator()
{
    return pf::PhotoFourierAccelerator(
        pf::arch::AcceleratorConfig::currentGen());
}

void
addCacheStats(Counters &c, const pf::tiling::KernelSpectrumCache &cache)
{
    const auto digital = cache.stats();
    const auto optical = cache.opticalPlaneCache()->stats();
    c.kernel_hits += digital.hits;
    c.kernel_misses += digital.misses;
    c.optical_hits += optical.hits;
    c.optical_misses += optical.misses;
}

/** Deterministic nonzero trace id (splitmix64 finalizer). */
uint64_t
traceIdFor(uint64_t i)
{
    uint64_t z = (i + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) | 1ull;
}

uint64_t g_traced_requests = 0;

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"pf-vgg-solo", EngineKind::Photonic, "small-vgg",
         /*max_batch=*/1, /*outstanding=*/8, /*pool=*/64,
         /*tail_pct=*/99.0},
        {"jtc-optical-alexnet", EngineKind::Optical, "small-alexnet", 4, 16,
         16, 95.0},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

nn::Network
buildModel(const std::string &family)
{
    std::optional<nn::Network> net = pf::cluster::buildModelFromSpec(
        "zoo:" + family + ":" + std::to_string(kZooWidth) + ":" +
        std::to_string(kZooSeed));
    if (!net)
        pf_fatal("no zoo model for '", family, "'");
    return std::move(*net);
}

std::string
shortName(const std::string &family)
{
    const std::string prefix = "small-";
    return family.rfind(prefix, 0) == 0 ? family.substr(prefix.size())
                                        : family;
}

nn::PhotoFourierEngineConfig
engineConfig(const Workload &workload)
{
    nn::PhotoFourierEngineConfig config = accelerator().engineConfig(false);
    config.optical_backend = workload.engine == EngineKind::Optical;
    return config;
}

std::shared_ptr<const nn::ConvEngine>
makeEngine(const Workload &workload,
           std::shared_ptr<pf::tiling::KernelSpectrumCache> spectra)
{
    return std::make_shared<nn::PhotoFourierEngine>(engineConfig(workload),
                                                    std::move(spectra));
}

std::vector<nn::Sample>
samplePool(const Workload &workload)
{
    nn::SyntheticCifar generator(nn::SyntheticCifarConfig{}, kPoolSeed);
    return generator.generate(workload.pool);
}

SampleOrder::SampleOrder(uint64_t seed, size_t pool)
    : rng_(seed), pool_(pool)
{
}

size_t
SampleOrder::next()
{
    if (pos_ == perm_.size()) {
        perm_ = rng_.permutation(pool_);
        pos_ = 0;
    }
    return perm_[pos_++];
}

Reference
computeReference(const Workload &workload,
                 const std::vector<nn::Sample> &pool)
{
    Reference ref;
    nn::Network engine_net = buildModel(workload.family);
    nn::Network direct_net = buildModel(workload.family);
    engine_net.setConvEngine(makeEngine(workload, nullptr));
    size_t agree = 0;
    for (const nn::Sample &sample : pool) {
        ref.logits.push_back(engine_net.logits(sample.image));
        agree += nn::argmax(ref.logits.back()) ==
                 nn::argmax(direct_net.logits(sample.image));
    }
    ref.top1_agree_pct = 100.0 * double(agree) / double(pool.size());
    return ref;
}

void
ResponseLog::record(size_t sample, const std::vector<double> &logits)
{
    Variants &variants = responses_[sample];
    for (auto &[seen, count] : variants) {
        if (seen == logits) {
            ++count;
            return;
        }
    }
    variants.emplace_back(logits, 1);
}

uint64_t
ResponseLog::mismatches(const Reference &reference) const
{
    uint64_t mismatched = 0;
    for (const auto &[sample, variants] : responses_) {
        const std::vector<double> &expected = reference.logits[sample];
        for (const auto &[seen, count] : variants)
            mismatched += seen == expected ? 0 : count;
    }
    return mismatched;
}

Target::Target(const Workload &workload, obs::TraceSink *sink)
    : workload_(workload)
{
    serve::BatchingConfig batching;
    batching.max_batch = workload.max_batch;
    serve::ServerConfig config;
    if (workload.engine == EngineKind::Optical) {
        config.batching = batching;
    } else {
        config = accelerator().servingConfig(batching, false);
        // servingConfig's engines share one spectrum cache that the
        // server's registry does not know about; keep a handle so its
        // traffic can be counted.
        config.engine_factory = [this, inner = std::move(
                                           config.engine_factory)](
                                    size_t id) {
            auto engine = inner(id);
            const auto *photonic =
                dynamic_cast<const nn::PhotoFourierEngine *>(engine.get());
            std::lock_guard<std::mutex> lock(mutex_);
            if (photonic != nullptr)
                factory_spectra_ = photonic->spectrumCache();
            return engine;
        };
    }
    config.workers = kWorkersPerServer;
    config.metrics = &metrics_;
    config.trace_sink = sink;
    server_ = std::make_unique<serve::InferenceServer>(config);
    if (workload.engine == EngineKind::Optical)
        server_->registry().add(workload.family, buildModel(workload.family),
                                engineConfig(workload));
    else
        server_->registry().add(workload.family,
                                buildModel(workload.family));
}

serve::Completion
Target::submit(const nn::Tensor &input, serve::SubmitOptions options)
{
    return server_->submit(workload_.family, input, options);
}

Counters
Target::counters()
{
    Counters c;
    const obs::MetricsSnapshot snap = metrics_.snapshot();
    c.batches = snap.counterValue("pf_serve_batches_total");
    c.fused_batches = snap.counterValue("pf_serve_fused_batch_total");
    if (const obs::MetricValue *v = snap.find("pf_serve_batch_size"))
        c.batched_requests = v->histogram.sum;
    // The registry's caches, then the one servingConfig's engines share.
    c.kernel_hits = uint64_t(snap.gaugeValue("pf_cache_kernel_hits"));
    c.kernel_misses = uint64_t(snap.gaugeValue("pf_cache_kernel_misses"));
    c.optical_hits = uint64_t(snap.gaugeValue("pf_cache_optical_hits"));
    c.optical_misses = uint64_t(snap.gaugeValue("pf_cache_optical_misses"));
    std::lock_guard<std::mutex> lock(mutex_);
    if (factory_spectra_)
        addCacheStats(c, *factory_spectra_);
    return c;
}

PhaseResult
runClosedLoop(const Workload &workload, Target &target,
              const std::vector<nn::Sample> &pool, ResponseLog &responses,
              SampleOrder &order, PhaseLimit limit, bool traced)
{
    struct InFlight
    {
        serve::Completion handle;
        size_t sample;
    };
    std::deque<InFlight> inflight;
    PhaseResult result;
    const auto start = Clock::now();
    const auto deadline = start + limit.length;
    auto open = [&] {
        return limit.requests != 0 ? result.attempted < limit.requests
                                   : Clock::now() < deadline;
    };
    auto submitOne = [&] {
        const size_t sample = order.next();
        serve::SubmitOptions options;
        if (traced)
            options.trace_id = traceIdFor(g_traced_requests++);
        inflight.push_back(
            {target.submit(pool[sample].image, options), sample});
        ++result.attempted;
    };

    while (inflight.size() < workload.outstanding && open())
        submitOne();
    while (!inflight.empty()) {
        InFlight request = std::move(inflight.front());
        inflight.pop_front();
        const bool timed = open();
        if (request.handle.wait() != serve::RequestStatus::Done) {
            ++result.failed;
        } else {
            ++result.completed;
            responses.record(request.sample, request.handle.logits());
            if (timed) {
                result.latency_us.push_back(request.handle.latencyUs());
                result.completed_at_s.push_back(
                    std::chrono::duration<double>(Clock::now() - start)
                        .count());
            }
        }
        if (open())
            submitOne();
    }
    return result;
}

double
PhaseResult::throughputRps() const
{
    const size_t n = completed_at_s.size();
    if (n < 2)
        return 0.0;
    return double(n - 1) / (completed_at_s.back() - completed_at_s.front());
}

size_t
samplesBeyond(size_t count, double pct)
{
    // The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
    const size_t rank = static_cast<size_t>(
        std::ceil(pct * static_cast<double>(count) / 100.0 - 1e-6));
    return count - std::min(count, rank);
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t rank = values.size() - samplesBeyond(values.size(), pct);
    return values[std::max<size_t>(rank, 1) - 1];
}

double
supportedTailPct(size_t count)
{
    for (double pct : {99.9, 99.0, 95.0, 90.0}) {
        if (samplesBeyond(count, pct) >= 10)
            return pct;
    }
    return 50.0;
}

} // namespace pfbench
