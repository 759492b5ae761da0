/**
 * @file
 * Bounded admission queue with dynamic micro-batch formation.
 *
 * Requests enter per-model FIFO queues behind one capacity bound.
 * Workers pop *batches*: up to max_batch requests of one model,
 * dispatched as soon as the batch is full OR the model's head request
 * has waited batch_window (the classic latency/throughput knob of
 * dynamic batching). Each model's queue is FIFO: a batch takes its
 * model's oldest requests, in enqueue order. Among models with waiting
 * requests, the one with the oldest head is served first, so no model
 * starves.
 *
 * Drain protocol: closeAdmission() rejects new pushes and flushes the
 * batch windows (queued work dispatches immediately); waitDrained()
 * blocks until nothing is queued or in flight. close() additionally
 * lets popBatch() return empty once the queue is exhausted, which is
 * the worker-thread exit signal. Every admitted request is handed to
 * exactly one popBatch() caller — admission control never drops work
 * it accepted.
 */

#ifndef PHOTOFOURIER_SERVE_BATCH_QUEUE_HH
#define PHOTOFOURIER_SERVE_BATCH_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/tensor.hh"
#include "serve/completion.hh"

namespace photofourier {
namespace serve {

/** Per-request submission parameters. */
struct SubmitOptions
{
    /**
     * Nonzero opts this request into detailed tracing: the server
     * records per-stage spans tagged with this id into its trace sink
     * (obs/trace.hh). 0 (the default) keeps the request untraced.
     */
    uint64_t trace_id = 0;
};

/** Scheduler parameters: batch formation and admission control. */
struct BatchingConfig
{
    /** Most requests coalesced into one dispatch. */
    size_t max_batch = 8;

    /**
     * Longest a head-of-line request waits for its batch to fill
     * before dispatching partial.
     */
    std::chrono::microseconds batch_window{2000};

    /** Bounded admission: queued (not in-flight) requests, all models. */
    size_t queue_capacity = 1024;
};

/** One admitted request awaiting dispatch. */
struct QueuedRequest
{
    std::string model;
    nn::Tensor input;
    std::shared_ptr<detail::CompletionState> completion;
    uint64_t trace_id = 0; ///< nonzero = record per-stage spans
};

/** The shared queue between submitters and worker threads. */
class BatchQueue
{
  public:
    explicit BatchQueue(BatchingConfig config);

    /** Admit a request; false when full, draining, or closed. */
    bool push(QueuedRequest request);

    /**
     * Block until a batch is dispatchable and take it (all one model,
     * in enqueue order). Returns empty only after close() once nothing
     * is left. The batch counts as in flight until markDone().
     */
    std::vector<QueuedRequest> popBatch();

    /** Report `n` requests of a popped batch delivered. */
    void markDone(size_t n);

    /** Stop admission; flush windows so queued work dispatches now. */
    void closeAdmission();

    /** Block until queued == 0 and in-flight == 0. */
    void waitDrained();

    /** closeAdmission() and release poppers once the queue empties. */
    void close();

    /** Requests currently queued (diagnostics). */
    size_t depth() const;

  private:
    BatchingConfig config_;
    mutable std::mutex mutex_;
    std::condition_variable dispatch_cv_; ///< wakes popBatch
    std::condition_variable drained_cv_;  ///< wakes waitDrained
    /** Each model's waiting requests, oldest first; none is empty. */
    std::map<std::string, std::deque<QueuedRequest>> queues_;
    size_t depth_ = 0;    ///< queued, not yet popped
    size_t inflight_ = 0; ///< popped, not yet markDone'd
    bool admitting_ = true;
    bool closed_ = false;
};

} // namespace serve
} // namespace photofourier

#endif // PHOTOFOURIER_SERVE_BATCH_QUEUE_HH
