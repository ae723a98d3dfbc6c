#include "pram/plan_assembler.hpp"

#include <algorithm>

#include "pram/memory_system.hpp"
#include "util/assert.hpp"

namespace pramsim::pram {

namespace {
constexpr std::uint32_t kNone = AccessPlan::kNone;
/// index_ value of a variable seen only as a write.
constexpr std::uint32_t kWriteOnly = kNone - 1;
}  // namespace

const AccessPlan& PlanAssembler::assemble(std::span<const VarId> reads,
                                          std::span<const VarWrite> writes,
                                          const MemorySystem& target) {
  // Derive the read/write join, checking both lists are distinct.
  index_.clear();
  index_.reserve(reads.size() + writes.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const bool fresh =
        index_.try_emplace(reads[i].value(), static_cast<std::uint32_t>(i))
            .second;
    PRAMSIM_ASSERT_MSG(fresh, "plan reads must be distinct");
  }
  write_read_.resize(writes.size());
  for (std::size_t w = 0; w < writes.size(); ++w) {
    const auto [slot, fresh] =
        index_.try_emplace(writes[w].var.value(), kWriteOnly);
    PRAMSIM_ASSERT_MSG(fresh || *slot != kWriteOnly,
                       "plan writes must be distinct");
    write_read_[w] = fresh ? kNone : *slot;
    *slot = kWriteOnly;  // a second write of this variable trips the check
  }
  return assemble(reads, writes, write_read_, target);
}

const AccessPlan& PlanAssembler::assemble(
    std::span<const VarId> reads, std::span<const VarWrite> writes,
    std::span<const std::uint32_t> write_read, const MemorySystem& target) {
  PRAMSIM_ASSERT(write_read.size() == writes.size());
  arena_.reset();
  const auto n_reads = static_cast<std::uint32_t>(reads.size());
  const auto n_writes = static_cast<std::uint32_t>(writes.size());
  const std::size_t cap = reads.size() + writes.size();
  auto requests = arena_.alloc<PlanRequest>(cap);
  auto read_request = arena_.alloc<std::uint32_t>(reads.size());
  auto write_request = arena_.alloc<std::uint32_t>(writes.size());
  auto request_write = arena_.alloc<std::uint32_t>(cap);

  // Reads lead the request list, so request i IS read i.
  for (std::uint32_t i = 0; i < n_reads; ++i) {
    requests[i] = {reads[i], AccessOp::kRead, true};
    read_request[i] = i;
    request_write[i] = kNone;
  }
  // Writes join their variable's read request or extend the list.
  std::uint32_t n_requests = n_reads;
  for (std::uint32_t w = 0; w < n_writes; ++w) {
    std::uint32_t req = write_read[w];
    if (req == kNone) {
      req = n_requests++;
      requests[req] = {writes[w].var, AccessOp::kWrite, false};
    } else {
      requests[req].op = AccessOp::kWrite;
    }
    write_request[w] = req;
    request_write[req] = w;
  }

  plan_ = {};
  plan_.reads = reads;
  plan_.writes = writes;
  plan_.requests = requests.first(n_requests);
  plan_.read_request = read_request;
  plan_.write_request = write_request;
  plan_.request_write = request_write.first(n_requests);

  if (target.wants_plan_groups() && n_requests > 0) {
    sort_scratch_.clear();
    for (std::uint32_t j = 0; j < n_requests; ++j) {
      sort_scratch_.emplace_back(target.plan_group_of(requests[j].var), j);
    }
    // Pair order = (key, request index): a stable grouping without
    // stable_sort's temp buffer.
    std::sort(sort_scratch_.begin(), sort_scratch_.end());
    auto group_requests = arena_.alloc<std::uint32_t>(n_requests);
    auto request_group = arena_.alloc<std::uint32_t>(n_requests);
    auto group_keys = arena_.alloc<std::uint64_t>(n_requests);
    auto group_offsets = arena_.alloc<std::uint32_t>(n_requests + 1);
    std::uint32_t g = 0;
    for (std::uint32_t i = 0; i < n_requests; ++i) {
      const auto [key, req] = sort_scratch_[i];
      if (i == 0 || key != sort_scratch_[i - 1].first) {
        group_keys[g] = key;
        group_offsets[g] = i;
        ++g;
      }
      group_requests[i] = req;
      request_group[req] = g - 1;
    }
    group_offsets[g] = n_requests;
    plan_.group_keys = group_keys.first(g);
    plan_.group_offsets = group_offsets.first(g + 1);
    plan_.group_requests = group_requests;
    plan_.request_group = request_group;
  }
  return plan_;
}

}  // namespace pramsim::pram
