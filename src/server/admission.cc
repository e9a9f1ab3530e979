#include "src/server/admission.h"

#include <algorithm>
#include <utility>

#include "src/server/protocol.h"

namespace blink {

AdmissionController::AdmissionController(const SampleStore* store,
                                         const ClusterModel* cluster,
                                         const RuntimeConfig& config, size_t workers,
                                         AdmissionOptions options)
    : options_(std::move(options)),
      pool_(store, cluster, config, std::max<size_t>(1, workers)) {
  // Every worker counts as idle from the start, not from when its thread
  // first parks: a Submit right after construction must find room.
  idle_ = pool_.size();
  workers_.reserve(pool_.size());
  for (size_t i = 0; i < pool_.size(); ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AdmissionController::~AdmissionController() {
  std::deque<Ticket> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    orphaned.swap(queue_);
  }
  ready_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
  // Terminal-frame guarantee (docs/PROTOCOL.md §2): even at shutdown, no
  // admitted query vanishes silently.
  for (Ticket& ticket : orphaned) {
    ticket.shed(wire_error::kBusy, "server shutting down");
  }
}

size_t AdmissionController::RungFor(size_t waiting) const {
  if (options_.shed_ladder.empty() || options_.queue_depth == 0 || waiting == 0) {
    return 0;
  }
  // Linear occupancy bands: backlog 0..depth maps onto ladder.size()+1 bands,
  // so an empty queue widens nothing and a nearly full queue runs the top
  // rung.
  const size_t bands = options_.shed_ladder.size() + 1;
  return std::min(options_.shed_ladder.size(),
                  waiting * bands / (options_.queue_depth + 1));
}

bool AdmissionController::Submit(uint64_t client, Work work, Shed shed) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Room = waiting slots plus idle workers: a ticket an idle worker will
    // claim immediately never counts against the queue, so queue_depth = 0
    // still admits whenever a worker is free (and only then).
    if (stopping_ || queue_.size() >= options_.queue_depth + idle_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Ticket ticket;
    ticket.client = client;
    ticket.work = std::move(work);
    ticket.shed = std::move(shed);
    ticket.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(ticket));
  }
  ready_cv_.notify_one();
  return true;
}

void AdmissionController::WorkerLoop() {
  for (;;) {
    Ticket ticket;
    Decision decision;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) {
        return;
      }
      // Fairness: the oldest ticket whose client holds no worker goes first;
      // when every waiting client is already running somewhere, plain FIFO.
      auto it = queue_.begin();
      if (options_.fair) {
        for (auto probe = queue_.begin(); probe != queue_.end(); ++probe) {
          auto r = running_.find(probe->client);
          if (r == running_.end() || r->second == 0) {
            it = probe;
            break;
          }
        }
      }
      ticket = std::move(*it);
      queue_.erase(it);
      const auto now = std::chrono::steady_clock::now();
      decision.queue_seconds =
          std::chrono::duration<double>(now - ticket.enqueued).count();
      decision.shed_rung = RungFor(queue_.size());
      if (decision.shed_rung > 0) {
        decision.shed_bound = options_.shed_ladder[decision.shed_rung - 1];
      }
      if (options_.deadline_seconds > 0 &&
          decision.queue_seconds > options_.deadline_seconds) {
        deadline_shed_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        ticket.shed(wire_error::kDeadlineExceeded,
                    "query waited past the admission deadline");
        continue;
      }
      ++running_[ticket.client];
      --idle_;
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
    if (decision.shed_rung > 0) {
      widened_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      RuntimePool::Lease lease = pool_.Acquire();
      ticket.work(lease.runtime(), decision);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto r = running_.find(ticket.client);
      if (r != running_.end() && --r->second == 0) {
        running_.erase(r);
      }
      ++idle_;
    }
  }
}

size_t AdmissionController::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

AdmissionStats AdmissionController::stats() const {
  AdmissionStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.widened = widened_.load(std::memory_order_relaxed);
  s.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace blink
