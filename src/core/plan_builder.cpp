#include "core/plan_builder.hpp"

namespace pramsim::core {

void PlanBuilder::combine_into(const pram::AccessBatch& batch) {
  index_.clear();
  index_.reserve(batch.size());
  entries_.clear();
  reads_.clear();
  writes_.clear();
  writer_.clear();
  write_read_.clear();
  for (const auto& access : batch) {
    const auto [slot, fresh] = index_.try_emplace(
        access.var.value(), static_cast<std::uint32_t>(entries_.size()));
    if (fresh) {
      entries_.emplace_back();
    }
    Entry& entry = entries_[*slot];
    if (access.op == pram::AccessOp::kRead) {
      // Distinct reads in first-appearance order.
      if (entry.read == pram::AccessPlan::kNone) {
        entry.read = static_cast<std::uint32_t>(reads_.size());
        reads_.push_back(access.var);
      }
      continue;
    }
    // CW resolution: the lowest processor id wins; distinct writes in
    // first-appearance order.
    if (entry.write == pram::AccessPlan::kNone) {
      entry.write = static_cast<std::uint32_t>(writes_.size());
      writes_.push_back({access.var, access.value});
      writer_.push_back(access.proc);
      write_read_.push_back(*slot);
    } else if (access.proc.value() < writer_[entry.write].value()) {
      writes_[entry.write].value = access.value;
      writer_[entry.write] = access.proc;
    }
  }
  // A read may follow the variable's first write in the batch, so the
  // join is resolved only now.
  for (auto& join : write_read_) {
    join = entries_[join].read;
  }
}

const pram::AccessPlan& PlanBuilder::build(const pram::AccessBatch& batch,
                                           const pram::MemorySystem& memory) {
  combine_into(batch);
  return assembler_.assemble(reads_, writes_, write_read_, memory);
}

CombinedStep PlanBuilder::combine(const pram::AccessBatch& batch) {
  combine_into(batch);
  return {reads_, writes_};
}

}  // namespace pramsim::core
