/**
 * @file
 * Future-style handle for one in-flight inference request.
 *
 * submit() returns a Completion immediately; the micro-batching
 * scheduler fulfills it from whichever worker ran the request. Handles
 * are cheap shared references: all copies observe the same request,
 * and the result stays alive as long as any handle does.
 */

#ifndef PHOTOFOURIER_SERVE_COMPLETION_HH
#define PHOTOFOURIER_SERVE_COMPLETION_HH

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace photofourier {
namespace serve {

/** Lifecycle of a submitted request. */
enum class RequestStatus
{
    Pending,  ///< queued or executing
    Done,     ///< logits available
    Failed,   ///< server-side error (e.g. unknown model)
    Rejected, ///< never admitted (queue full or server draining)
};

/** Human-readable status name for logs and reports. */
std::string statusName(RequestStatus status);

namespace detail {

/**
 * The record shared between the server (producer) and any number of
 * Completion handles (consumers). Fulfilled exactly once; a second
 * fulfill is a library bug and panics.
 */
struct CompletionState
{
    std::mutex mutex;
    std::condition_variable cv;
    RequestStatus status = RequestStatus::Pending;
    std::vector<double> logits;
    std::string error;
    std::chrono::steady_clock::time_point enqueued;
    double latency_us = 0.0;

    /** Move to a terminal status and wake every waiter. */
    void fulfill(RequestStatus terminal, std::vector<double> result,
                 std::string message);
};

} // namespace detail

class Completion;

namespace detail {

/**
 * Bind a handle to a state owned by a producer other than
 * InferenceServer (the cluster router and remote endpoints fulfill
 * completions from protocol responses).
 */
Completion bindCompletion(std::shared_ptr<CompletionState> state);

} // namespace detail

/** Copyable future for one request's logits. */
class Completion
{
  public:
    /** An unbound handle (valid() == false); the server makes real ones. */
    Completion() = default;

    /** True when bound to a submitted request. */
    bool valid() const { return state_ != nullptr; }

    /** Current status, without blocking. */
    RequestStatus status() const;

    /** Block until terminal; returns the terminal status. */
    RequestStatus wait() const;

    /**
     * Block until terminal and return the logits. Panics unless the
     * terminal status is Done — check wait()/status() first when a
     * rejection is an expected outcome.
     */
    const std::vector<double> &logits() const;

    /** Failure/rejection message (empty while pending or when done). */
    std::string error() const;

    /**
     * Submit-to-completion latency in microseconds. Valid once the
     * request is terminal (0 before that).
     */
    double latencyUs() const;

  private:
    friend class InferenceServer;
    friend Completion detail::bindCompletion(
        std::shared_ptr<detail::CompletionState> state);
    explicit Completion(std::shared_ptr<detail::CompletionState> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<detail::CompletionState> state_;
};

} // namespace serve
} // namespace photofourier

#endif // PHOTOFOURIER_SERVE_COMPLETION_HH
