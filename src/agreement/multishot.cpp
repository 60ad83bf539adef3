#include "src/agreement/multishot.h"

#include <algorithm>
#include <string>

#include "src/util/assert.h"

namespace setlib::agreement {

MultiShotAgreement::MultiShotAgreement(shm::IMemory& mem, Params params,
                                       const fd::KAntiOmega* detector)
    : params_(params), detector_(detector) {
  SETLIB_EXPECTS(params.n >= 2 && params.n <= kMaxProcs);
  SETLIB_EXPECTS(params.k >= 1 && params.k <= params.n - 1);
  SETLIB_EXPECTS(params.t >= 1 && params.t <= params.n - 1);
  SETLIB_EXPECTS(params.slots >= 1);
  SETLIB_EXPECTS(detector != nullptr);
  SETLIB_EXPECTS(detector->params().n == params.n);
  SETLIB_EXPECTS(detector->params().k == params.k);
  instances_.reserve(static_cast<std::size_t>(params.slots) *
                     static_cast<std::size_t>(params.k));
  for (int s = 0; s < params.slots; ++s) {
    for (int m = 0; m < params.k; ++m) {
      instances_.push_back(std::make_unique<PaxosConsensus>(
          mem, params.n,
          "ms.slot" + std::to_string(s) + ".inst" + std::to_string(m)));
    }
  }
  log_.assign(static_cast<std::size_t>(params.n) *
                  static_cast<std::size_t>(params.slots),
              std::nullopt);
}

PaxosConsensus& MultiShotAgreement::instance(int slot, int m) {
  SETLIB_EXPECTS(slot >= 0 && slot < params_.slots);
  SETLIB_EXPECTS(m >= 0 && m < params_.k);
  return *instances_[static_cast<std::size_t>(slot) *
                         static_cast<std::size_t>(params_.k) +
                     static_cast<std::size_t>(m)];
}

void MultiShotAgreement::install(shm::ProcessRuntime& proc, Pid p,
                                 std::vector<std::int64_t> commands) {
  SETLIB_EXPECTS(p >= 0 && p < params_.n);
  SETLIB_EXPECTS(proc.pid() == p);
  SETLIB_EXPECTS(commands.size() ==
                 static_cast<std::size_t>(params_.slots));
  proc.add_task(driver(p, std::move(commands)), "multishot");
}

shm::Prog MultiShotAgreement::driver(Pid p,
                                     std::vector<std::int64_t> commands) {
  const int k = params_.k;
  for (int slot = 0; slot < params_.slots; ++slot) {
    // The slot's k instance programs, pumped round-robin: each pass
    // forwards one register operation of each live instance, so a
    // stalled instance (crashed leader) cannot block the others.
    std::vector<PaxosConsensus::Status> statuses(
        static_cast<std::size_t>(k));
    std::vector<shm::Prog> kids;
    std::vector<bool> started(static_cast<std::size_t>(k), false);
    kids.reserve(static_cast<std::size_t>(k));
    for (int m = 0; m < k; ++m) {
      // The m-th smallest member of a k-member winnerset, as in kset.cpp.
      auto leader = [this, m](Pid self) -> Pid {
        return detector_->view(self).winnerset.nth(m);
      };
      kids.push_back(instance(slot, m).run(
          p, commands[static_cast<std::size_t>(slot)], leader,
          &statuses[static_cast<std::size_t>(m)]));
    }

    std::optional<std::int64_t> decision;
    while (!decision.has_value()) {
      for (int m = 0; m < k && !decision.has_value(); ++m) {
        auto& kid = kids[static_cast<std::size_t>(m)];
        if (!started[static_cast<std::size_t>(m)]) {
          kid.resume();  // run to the first operation request
          started[static_cast<std::size_t>(m)] = true;
        }
        if (kid.done()) continue;
        // Forward exactly one step of the child's operations as our own
        // (one register of a multi-step read); the child resumes once
        // its whole request is served.
        if (!co_await shm::forward(kid.pending())) continue;
        kid.resume();
        if (statuses[static_cast<std::size_t>(m)].decided) {
          decision = statuses[static_cast<std::size_t>(m)].value;
        }
      }
    }
    log_[static_cast<std::size_t>(p) *
             static_cast<std::size_t>(params_.slots) +
         static_cast<std::size_t>(slot)] = *decision;
  }
}

std::optional<std::int64_t> MultiShotAgreement::log_at(Pid p,
                                                       int slot) const {
  SETLIB_EXPECTS(p >= 0 && p < params_.n);
  SETLIB_EXPECTS(slot >= 0 && slot < params_.slots);
  return log_[static_cast<std::size_t>(p) *
                  static_cast<std::size_t>(params_.slots) +
              static_cast<std::size_t>(slot)];
}

int MultiShotAgreement::decided_prefix(Pid p) const {
  int count = 0;
  while (count < params_.slots && log_at(p, count).has_value()) ++count;
  return count;
}

bool MultiShotAgreement::all_decided(ProcSet who) const {
  for (Pid p : who.to_vector()) {
    if (decided_prefix(p) < params_.slots) return false;
  }
  return true;
}

std::vector<std::int64_t> MultiShotAgreement::slot_values(
    int slot, ProcSet who) const {
  std::vector<std::int64_t> values;
  for (Pid p : who.to_vector()) {
    const auto v = log_at(p, slot);
    if (v.has_value()) values.push_back(*v);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace setlib::agreement
