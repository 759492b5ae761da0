#include "serve/batch_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace photofourier {
namespace serve {

using Clock = std::chrono::steady_clock;

BatchQueue::BatchQueue(BatchingConfig config) : config_(config)
{
    pf_assert(config_.max_batch >= 1, "max_batch must be >= 1");
    pf_assert(config_.queue_capacity >= 1, "queue_capacity must be >= 1");
    pf_assert(config_.batch_window.count() >= 0,
              "batch_window must be >= 0");
}

bool
BatchQueue::push(QueuedRequest request)
{
    pf_assert(request.completion != nullptr, "push without completion");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!admitting_ || closed_ || depth_ >= config_.queue_capacity)
            return false;
        queues_[request.model].push_back(std::move(request));
        ++depth_;
    }
    dispatch_cv_.notify_one();
    return true;
}

std::vector<QueuedRequest>
BatchQueue::popBatch()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // A model is dispatchable when its batch is full, its head
        // request's window expired, or admission closed (drain flushes
        // partial batches). Prefer any dispatchable model — oldest
        // head first among those — so a full batch never waits behind
        // another model's still-open window. With nothing
        // dispatchable, the oldest head owns the earliest deadline.
        const auto now = Clock::now();
        auto pick = queues_.end();
        bool pick_ready = false;
        Clock::time_point pick_head{};
        for (auto it = queues_.begin(); it != queues_.end(); ++it) {
            const auto head = it->second.front().completion->enqueued;
            const bool ready =
                it->second.size() >= config_.max_batch ||
                !admitting_ || now >= head + config_.batch_window;
            if (pick == queues_.end() || (ready && !pick_ready) ||
                (ready == pick_ready && head < pick_head)) {
                pick = it;
                pick_ready = ready;
                pick_head = head;
            }
        }

        if (pick != queues_.end() && pick_ready) {
            auto &queue = pick->second;
            const size_t take = std::min(queue.size(), config_.max_batch);
            std::vector<QueuedRequest> batch;
            batch.reserve(take);
            for (size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue.front()));
                queue.pop_front();
            }
            if (queue.empty())
                queues_.erase(pick);
            depth_ -= take;
            inflight_ += take;
            return batch;
        }

        if (pick != queues_.end()) {
            dispatch_cv_.wait_until(lock,
                                    pick_head + config_.batch_window);
            continue;
        }

        if (closed_)
            return {};
        dispatch_cv_.wait(lock);
    }
}

void
BatchQueue::markDone(size_t n)
{
    bool drained = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pf_assert(inflight_ >= n, "markDone(", n, ") with ", inflight_,
                  " in flight");
        inflight_ -= n;
        drained = depth_ == 0 && inflight_ == 0;
    }
    if (drained)
        drained_cv_.notify_all();
}

void
BatchQueue::closeAdmission()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        admitting_ = false;
    }
    // Wake poppers parked on batch-window deadlines: with admission
    // closed their partial batches dispatch immediately.
    dispatch_cv_.notify_all();
}

void
BatchQueue::waitDrained()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drained_cv_.wait(lock, [&] { return depth_ == 0 && inflight_ == 0; });
}

void
BatchQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        admitting_ = false;
        closed_ = true;
    }
    dispatch_cv_.notify_all();
}

size_t
BatchQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return depth_;
}

} // namespace serve
} // namespace photofourier
