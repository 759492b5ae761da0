#include "serve/batch_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace photofourier {
namespace serve {

using Clock = std::chrono::steady_clock;

Clock::time_point
BatchQueue::ModelQueue::oldestHead() const
{
    // Both deques are FIFO, so each front is its level's oldest.
    if (level[0].empty())
        return level[1].front().completion->enqueued;
    if (level[1].empty())
        return level[0].front().completion->enqueued;
    return std::min(level[0].front().completion->enqueued,
                    level[1].front().completion->enqueued);
}

BatchQueue::BatchQueue(BatchingConfig config) : config_(config)
{
    pf_assert(config_.max_batch >= 1, "max_batch must be >= 1");
    pf_assert(config_.queue_capacity >= 1, "queue_capacity must be >= 1");
    pf_assert(config_.batch_window.count() >= 0,
              "batch_window must be >= 0");
    pf_assert(config_.priority_aging.count() >= 0,
              "priority_aging must be >= 0");
}

bool
BatchQueue::push(QueuedRequest request)
{
    pf_assert(request.completion != nullptr, "push without completion");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!admitting_ || closed_ || depth_ >= config_.queue_capacity)
            return false;
        queues_[request.model]
            .level[static_cast<size_t>(request.priority)]
            .push_back(std::move(request));
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
            if (it->second.empty())
                continue;
            const auto head = it->second.oldestHead();
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
            auto &interactive =
                pick->second.level[size_t(Priority::Interactive)];
            auto &background =
                pick->second.level[size_t(Priority::Batch)];
            const size_t take =
                std::min(pick->second.size(), config_.max_batch);
            std::vector<QueuedRequest> batch;
            batch.reserve(take);
            for (size_t i = 0; i < take; ++i) {
                // Interactive first; a Batch-class head that has aged
                // past priority_aging competes by enqueue time (and
                // being older, wins), so background work cannot starve
                // under sustained interactive load.
                bool from_background;
                if (interactive.empty()) {
                    from_background = true;
                } else if (background.empty()) {
                    from_background = false;
                } else {
                    const auto bg_head =
                        background.front().completion->enqueued;
                    from_background =
                        now >= bg_head + config_.priority_aging &&
                        bg_head <
                            interactive.front().completion->enqueued;
                }
                auto &q = from_background ? background : interactive;
                batch.push_back(std::move(q.front()));
                q.pop_front();
            }
            if (pick->second.empty())
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
