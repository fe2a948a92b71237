#include "src/server/registry.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/graph/io.h"

namespace nucleus {

std::shared_ptr<const std::string> GraphRegistry::Entry::FindKappa(
    DecompositionKind kind, std::uint64_t epoch, bool* admit) {
  std::lock_guard<std::mutex> lk(kappa_mu_);
  KappaSlot& slot = kappa_slots_[static_cast<int>(kind)];
  if (slot.epoch == epoch) {
    *admit = slot.fragment == nullptr;
    return slot.fragment;
  }
  // First read of a new epoch: remember it, and free a stale encoding.
  slot.epoch = epoch;
  slot.fragment.reset();
  *admit = false;
  return nullptr;
}

void GraphRegistry::Entry::AdmitKappa(
    DecompositionKind kind, std::uint64_t epoch,
    std::shared_ptr<const std::string> fragment) {
  std::lock_guard<std::mutex> lk(kappa_mu_);
  KappaSlot& slot = kappa_slots_[static_cast<int>(kind)];
  if (slot.epoch == epoch && slot.fragment == nullptr) {
    slot.fragment = std::move(fragment);
  }
}

void GraphRegistry::Entry::ClearKappa() {
  std::lock_guard<std::mutex> lk(kappa_mu_);
  for (KappaSlot& slot : kappa_slots_) slot = KappaSlot{};
}

std::uint64_t GraphRegistry::Entry::KappaFragmentBytes() const {
  std::lock_guard<std::mutex> lk(kappa_mu_);
  std::uint64_t bytes = 0;
  for (const KappaSlot& slot : kappa_slots_) {
    if (slot.fragment) bytes += slot.fragment->capacity();
  }
  return bytes;
}

std::uint64_t GraphRegistry::Entry::FootprintBytes() const {
  return session.Stats().TotalBytes() + KappaFragmentBytes();
}

StatusOr<std::shared_ptr<GraphRegistry::Entry>> GraphRegistry::Get(
    const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("graph not loaded: " + name);
  }
  it->second->last_used.store(clock_.fetch_add(1) + 1,
                              std::memory_order_relaxed);
  return it->second;
}

StatusOr<std::shared_ptr<GraphRegistry::Entry>> GraphRegistry::Load(
    const std::string& name, const std::string& path,
    std::uint64_t arena_budget_bytes) {
  // Parse outside the lock: loading a big SNAP file must not stall Gets.
  StatusOr<Graph> graph = TryLoadGraphAuto(path);
  if (!graph.ok()) return graph.status();
  return Register(name, std::move(graph).value(), arena_budget_bytes);
}

StatusOr<std::shared_ptr<GraphRegistry::Entry>> GraphRegistry::Add(
    const std::string& name, Graph&& graph, std::uint64_t arena_budget_bytes) {
  return Register(name, std::move(graph), arena_budget_bytes);
}

StatusOr<std::shared_ptr<GraphRegistry::Entry>> GraphRegistry::Register(
    const std::string& name, Graph&& graph,
    std::uint64_t arena_budget_bytes) {
  if (name.empty()) return Status::InvalidArgument("graph name is empty");
  if (arena_budget_bytes == 0) {
    arena_budget_bytes = config_.default_arena_budget_bytes;
  }
  auto entry =
      std::make_shared<Entry>(name, std::move(graph), arena_budget_bytes);
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = entries_.emplace(name, entry);
  if (!inserted) {
    return Status::FailedPrecondition("graph name already registered: " +
                                      name);
  }
  entry->last_used.store(clock_.fetch_add(1) + 1, std::memory_order_relaxed);
  EnforceBudgetLocked(/*keep=*/entry.get());
  return entry;
}

Status GraphRegistry::Evict(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("graph not loaded: " + name);
  }
  entries_.erase(it);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

std::vector<std::shared_ptr<GraphRegistry::Entry>> GraphRegistry::List()
    const {
  std::vector<std::shared_ptr<Entry>> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(entry);
  return out;  // entries_ is name-keyed, so this is already name-sorted
}

int GraphRegistry::EnforceBudget() {
  std::lock_guard<std::mutex> lk(mu_);
  return EnforceBudgetLocked(/*keep=*/nullptr);
}

int GraphRegistry::EnforceBudgetLocked(const Entry* keep) {
  if (config_.global_budget_bytes == 0) return 0;
  int evicted = 0;
  while (entries_.size() > (keep != nullptr ? 1u : 0u)) {
    std::uint64_t total = 0;
    for (const auto& [name, entry] : entries_) {
      total += entry->FootprintBytes();
    }
    if (total <= config_.global_budget_bytes) break;
    auto victim = entries_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.get() == keep) continue;
      const std::uint64_t used =
          it->second->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = it;
      }
    }
    if (victim == entries_.end()) break;
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    ++evicted;
  }
  return evicted;
}

std::size_t GraphRegistry::NumResident() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::uint64_t GraphRegistry::TotalBytes() const {
  std::vector<std::shared_ptr<Entry>> snapshot;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snapshot.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) snapshot.push_back(entry);
  }
  // Stats() takes the session lock; do it off the registry lock so a slow
  // session cannot serialize unrelated Gets.
  std::uint64_t total = 0;
  for (const auto& entry : snapshot) total += entry->FootprintBytes();
  return total;
}

}  // namespace nucleus
