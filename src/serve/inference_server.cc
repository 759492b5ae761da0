#include "serve/inference_server.hh"

#include <utility>

#include "common/logging.hh"
#include "common/table.hh"
#include "signal/fft2d_plan.hh"
#include "signal/fft_plan.hh"

namespace photofourier {
namespace serve {

using Clock = std::chrono::steady_clock;

namespace {

/** Steady-clock time_point as the obs-layer span timestamp. */
uint64_t
toNs(Clock::time_point tp)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count());
}

uint64_t
spanNs(Clock::time_point from, Clock::time_point to)
{
    return to > from ? toNs(to) - toNs(from) : 0;
}

} // namespace

std::string
ServerReport::table() const
{
    TextTable t({"model", "accepted", "rejected", "completed", "failed",
                 "batches", "mean_batch", "mean_us", "p50_us", "p95_us",
                 "p99_us"});
    for (const auto &m : models) {
        t.addRow({m.model, std::to_string(m.accepted),
                  std::to_string(m.rejected),
                  std::to_string(m.completed), std::to_string(m.failed),
                  std::to_string(m.batches),
                  TextTable::num(m.mean_batch, 2),
                  TextTable::num(m.latency_mean_us, 1),
                  TextTable::num(m.latency_p50_us, 1),
                  TextTable::num(m.latency_p95_us, 1),
                  TextTable::num(m.latency_p99_us, 1)});
    }
    return t.render();
}

InferenceServer::InferenceServer(ServerConfig config)
    : config_(std::move(config)), queue_(config_.batching),
      worker_target_(config_.workers > 0
                         ? config_.workers
                         : signal::defaultFftThreads()),
      started_at_(Clock::now())
{
    worker_engines_.resize(worker_target_);
    if (config_.engine_factory)
        for (size_t id = 0; id < worker_target_; ++id)
            worker_engines_[id] = config_.engine_factory(id);
    bindMetrics();
    if (config_.start_workers)
        start();
}

InferenceServer::~InferenceServer()
{
    // The cache collector captures `this`; unhook it before any member
    // it reads goes away.
    metrics_registry_->removeCollector(cache_collector_id_);
    shutdown();
}

void
InferenceServer::bindMetrics()
{
    metrics_registry_ = config_.metrics != nullptr
                            ? config_.metrics
                            : &obs::MetricsRegistry::global();
    trace_sink_ = config_.trace_sink != nullptr ? config_.trace_sink
                                                : &obs::TraceSink::global();

    obs::MetricsRegistry &r = *metrics_registry_;
    metric_.accepted = &r.counter("pf_serve_accepted_total");
    metric_.rejected = &r.counter("pf_serve_rejected_total");
    metric_.completed = &r.counter("pf_serve_completed_total");
    metric_.unknown_model = &r.counter("pf_serve_unknown_model_total");
    metric_.batches = &r.counter("pf_serve_batches_total");
    metric_.fused_batches = &r.counter("pf_serve_fused_batch_total");
    metric_.queue_depth = &r.gauge("pf_serve_queue_depth");
    metric_.stage_queue_us = &r.histogram("pf_serve_stage_queue_us");
    metric_.stage_batch_us = &r.histogram("pf_serve_stage_batch_us");
    metric_.stage_engine_us = &r.histogram("pf_serve_stage_engine_us");
    metric_.stage_complete_us =
        &r.histogram("pf_serve_stage_complete_us");
    metric_.latency_us = &r.histogram("pf_serve_latency_us");
    metric_.batch_size = &r.histogram("pf_serve_batch_size");

    // Cache traffic is pulled at snapshot time instead of instrumented
    // per lookup: the spectrum caches already count hits/misses, so a
    // collector folding them into gauges costs the hot path nothing.
    cache_collector_id_ = r.addCollector([this](obs::MetricsRegistry &reg) {
        tiling::KernelSpectrumCache::Stats kernel;
        signal::PlaneSpectrumCache::Stats optical;
        signal::ContentCache<tiling::KernelBank>::Stats prepared;
        for (const std::string &name : registry_.names()) {
            auto cache = registry_.spectrumCache(name);
            if (!cache)
                continue;
            const auto k = cache->stats();
            kernel.hits += k.hits;
            kernel.misses += k.misses;
            kernel.entries += k.entries;
            kernel.bytes += k.bytes;
            const auto o = cache->opticalPlaneCache()->stats();
            optical.hits += o.hits;
            optical.misses += o.misses;
            optical.entries += o.entries;
            optical.bytes += o.bytes;
            const auto p = cache->preparedLayers().stats();
            prepared.hits += p.hits;
            prepared.misses += p.misses;
            prepared.entries += p.entries;
            prepared.bytes += p.bytes;
        }
        reg.gauge("pf_cache_kernel_hits").set(double(kernel.hits));
        reg.gauge("pf_cache_kernel_misses").set(double(kernel.misses));
        reg.gauge("pf_cache_kernel_entries").set(double(kernel.entries));
        reg.gauge("pf_cache_kernel_bytes").set(double(kernel.bytes));
        reg.gauge("pf_cache_optical_hits").set(double(optical.hits));
        reg.gauge("pf_cache_optical_misses").set(double(optical.misses));
        reg.gauge("pf_cache_optical_entries")
            .set(double(optical.entries));
        reg.gauge("pf_cache_optical_bytes").set(double(optical.bytes));
        reg.gauge("pf_cache_prepared_hits").set(double(prepared.hits));
        reg.gauge("pf_cache_prepared_misses").set(double(prepared.misses));
        reg.gauge("pf_cache_prepared_entries")
            .set(double(prepared.entries));
        reg.gauge("pf_cache_prepared_bytes").set(double(prepared.bytes));
        reg.gauge("pf_signal_fft_plans")
            .set(double(signal::fftPlanCacheSize()));
        reg.gauge("pf_signal_fft2d_plans")
            .set(double(signal::fft2dPlanCacheSize()));
        // Span-ring overflow rides the same pull: a nonzero value in
        // a Prometheus dump says waterfalls may be missing spans.
        reg.gauge("pf_trace_spans_dropped")
            .set(double(trace_sink_->dropped()));
    });
}

void
InferenceServer::start()
{
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    pf_assert(!stopped_, "start() after shutdown()");
    if (started_)
        return;
    started_ = true;
    started_at_ = Clock::now();
    workers_.reserve(worker_target_);
    for (size_t id = 0; id < worker_target_; ++id)
        workers_.emplace_back([this, id] { workerLoop(id); });
}

Completion
InferenceServer::submit(const std::string &model, nn::Tensor input,
                        SubmitOptions options)
{
    auto state = std::make_shared<detail::CompletionState>();
    state->enqueued = Clock::now();
    Completion handle(state);

    if (!registry_.has(model)) {
        state->fulfill(RequestStatus::Failed, {},
                       "unknown model '" + model + "'");
        // Deliberately not stats_[model]: per-name entries for
        // arbitrary unregistered names would grow without bound and
        // fill report() with phantom models.
        unknown_model_failures_.fetch_add(1, std::memory_order_relaxed);
        metric_.unknown_model->inc();
        return handle;
    }

    // A shape the model cannot take fails here, before it is queued:
    // the same walk the layers assert, against the engine the
    // replicas will bind, so a request off the wire can never panic a
    // worker.
    const std::string invalid = registry_.inputError(
        model, input.shape(), worker_engines_.front().get());
    if (!invalid.empty()) {
        state->fulfill(RequestStatus::Failed, {}, invalid);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_[model].failed;
        return handle;
    }

    // Count the acceptance before the push makes the request visible
    // to workers: a report() racing the delivery must never observe
    // completed > accepted. A failed push takes the reservation back.
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_[model].accepted;
    }
    if (!queue_.push(QueuedRequest{model, std::move(input), state,
                                   options.trace_id})) {
        state->fulfill(RequestStatus::Rejected, {},
                       "queue full or server draining");
        metric_.rejected->inc();
        std::lock_guard<std::mutex> lock(stats_mutex_);
        --stats_[model].accepted;
        ++stats_[model].rejected;
        return handle;
    }
    metric_.accepted->inc();
    metric_.queue_depth->add(1.0);
    return handle;
}

void
InferenceServer::workerLoop(size_t id)
{
    // The worker's private engine (when configured) and replicas: no
    // network is ever shared between workers, so stateful layer caches
    // cannot race. Engines are const and thread-safe, and photonic
    // noise streams derive from each request's data, so sharing a
    // registration's override engine keeps them per-request-
    // deterministic.
    const std::shared_ptr<const nn::ConvEngine> &engine =
        worker_engines_[id];
    std::map<std::string, ModelRegistry::Replica> replicas;

    for (;;) {
        std::vector<QueuedRequest> batch = queue_.popBatch();
        if (batch.empty())
            return;
        const auto t_pop = Clock::now();
        metric_.queue_depth->add(-static_cast<double>(batch.size()));
        metric_.batches->inc();
        metric_.batch_size->record(static_cast<double>(batch.size()));

        const std::string &model = batch.front().model;
        // Re-clone when the registry moved past the version this
        // worker cloned: re-registration and engine-override changes
        // take effect on the next batch, not the next restart.
        auto it = replicas.find(model);
        if (it == replicas.end() ||
            it->second.version != registry_.version(model)) {
            auto replica = registry_.instantiateReplica(model);
            if (replica.override_engine) {
                // Per-model override wins over the worker's factory
                // engine. Every worker binds the registration's one
                // engine, on the registry's kernel-spectrum cache —
                // static weights are transformed and layers prepared
                // once per registration, not once per worker, and a
                // version bump swaps both.
                replica.network.setConvEngine(replica.override_engine);
            } else if (engine) {
                replica.network.setConvEngine(engine);
            }
            it = replicas.insert_or_assign(model, std::move(replica))
                     .first;
        }
        nn::Network &net = it->second.network;

        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            auto &s = stats_[model];
            ++s.batches;
            s.batched_requests += batch.size();
        }
        // The whole dequeue, whatever its size, runs as ONE
        // Network::logitsBatch call, so every conv layer amortizes
        // its weight prep, spectrum fetches, and transform dispatches
        // across the batch. A request's logits do not depend on its
        // batch (the Layer/ConvEngine batch contract), photonic
        // sensing noise included — noise streams derive from (seed,
        // activations, weights), never from shared engine state.
        if (batch.size() > 1)
            metric_.fused_batches->inc();
        std::vector<nn::Tensor> inputs;
        inputs.reserve(batch.size());
        std::vector<uint64_t> trace_ids;
        for (auto &request : batch) {
            inputs.push_back(std::move(request.input));
            if (request.trace_id != 0)
                trace_ids.push_back(request.trace_id);
        }
        Clock::time_point t_engine_start, t_engine_end;
        std::vector<std::vector<double>> all_logits;
        {
            // Binding every traced member makes the engine stage and
            // the spans inside the conv engines record into each
            // member's trace, nested under its `engine` span; with no
            // traced member every ScopedSpan is a no-op.
            obs::TraceBinding bind(trace_ids, trace_sink_);
            obs::ScopedSpan engine_span("engine");
            t_engine_start = Clock::now();
            all_logits = net.logitsBatch(inputs);
            t_engine_end = Clock::now();
        }
        // The engine window is shared, so each request's engine stage
        // is attributed its 1/N share.
        const double engine_share_us =
            std::chrono::duration<double, std::micro>(t_engine_end -
                                                      t_engine_start)
                .count() /
            static_cast<double>(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            auto &request = batch[i];
            const auto enqueued = request.completion->enqueued;
            // Stats before fulfill: a client that has observed Done
            // must find its request counted by any later report().
            const double latency_us =
                std::chrono::duration<double, std::micro>(t_engine_end -
                                                          enqueued)
                    .count();
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                auto &s = stats_[model];
                ++s.completed;
                s.latency_us.add(latency_us);
            }
            metric_.completed->inc();
            metric_.latency_us->record(latency_us);
            metric_.stage_queue_us->record(
                std::chrono::duration<double, std::micro>(t_pop -
                                                          enqueued)
                    .count());
            metric_.stage_batch_us->record(
                std::chrono::duration<double, std::micro>(
                    t_engine_start - t_pop)
                    .count());
            metric_.stage_engine_us->record(engine_share_us);
            request.completion->fulfill(RequestStatus::Done,
                                        std::move(all_logits[i]), {});
            const auto t_done = Clock::now();
            metric_.stage_complete_us->record(
                std::chrono::duration<double, std::micro>(t_done -
                                                          t_engine_end)
                    .count());
            if (request.trace_id != 0) {
                obs::recordSpan(request.trace_id, "request", 0,
                                toNs(enqueued), spanNs(enqueued, t_done),
                                trace_sink_);
                obs::recordSpan(request.trace_id, "queue", 1,
                                toNs(enqueued), spanNs(enqueued, t_pop),
                                trace_sink_);
                obs::recordSpan(request.trace_id, "batch", 1,
                                toNs(t_pop), spanNs(t_pop, t_engine_start),
                                trace_sink_);
                obs::recordSpan(request.trace_id, "complete", 1,
                                toNs(t_engine_end),
                                spanNs(t_engine_end, t_done),
                                trace_sink_);
            }
        }
        queue_.markDone(batch.size());
    }
}

void
InferenceServer::drain()
{
    queue_.closeAdmission();
    {
        std::lock_guard<std::mutex> lock(lifecycle_mutex_);
        pf_assert(started_ || queue_.depth() == 0,
                  "drain() with queued work but no workers started");
    }
    queue_.waitDrained();
}

void
InferenceServer::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(lifecycle_mutex_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    queue_.close();
    bool run_inline = false;
    {
        std::lock_guard<std::mutex> lock(lifecycle_mutex_);
        run_inline = !started_;
    }
    if (run_inline) {
        // Workers were never spawned (start_workers = false): deliver
        // whatever was accepted on the calling thread so graceful
        // shutdown still honors every admitted request.
        workerLoop(0);
    }
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();
}

ServerReport
InferenceServer::report() const
{
    ServerReport out;
    out.uptime_s = std::chrono::duration<double>(Clock::now() -
                                                 started_at_)
                       .count();
    uint64_t total_completed = 0;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const auto &[name, s] : stats_) {
        ModelReport m;
        m.model = name;
        m.accepted = s.accepted;
        m.rejected = s.rejected;
        m.completed = s.completed;
        m.failed = s.failed;
        m.batches = s.batches;
        m.mean_batch =
            s.batches ? static_cast<double>(s.batched_requests) /
                            static_cast<double>(s.batches)
                      : 0.0;
        if (s.latency_us.count() > 0) {
            m.latency_mean_us = s.latency_us.mean();
            m.latency_p50_us = s.latency_us.percentile(50.0);
            m.latency_p95_us = s.latency_us.percentile(95.0);
            m.latency_p99_us = s.latency_us.percentile(99.0);
        }
        m.latency_hist = s.latency_us;
        total_completed += s.completed;
        out.models.push_back(std::move(m));
    }
    out.throughput_rps =
        out.uptime_s > 0.0
            ? static_cast<double>(total_completed) / out.uptime_s
            : 0.0;
    out.unknown_model_failures =
        unknown_model_failures_.load(std::memory_order_relaxed);
    return out;
}

} // namespace serve
} // namespace photofourier
