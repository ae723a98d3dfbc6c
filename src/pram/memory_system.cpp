#include "pram/memory_system.hpp"

#include "util/assert.hpp"

namespace pramsim::pram {

namespace {
// Snapshot frame constants ("PSNP"): shared by every MemorySystem; the
// checkpoint FILE frame (magic, length, CRC) lives in src/durability.
constexpr std::uint32_t kSnapshotMagic = 0x50534E50u;
constexpr std::uint32_t kSnapshotVersion = 1;
}  // namespace

void MemorySystem::snapshot(SnapshotSink& sink) {
  put_u32(sink, kSnapshotMagic);
  put_u32(sink, kSnapshotVersion);
  put_u64(sink, steps_served());
  put_u64(sink, size());
  snapshot_body(sink);
}

bool MemorySystem::restore(SnapshotSource& source) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t clock = 0;
  std::uint64_t m = 0;
  if (!get_u32(source, magic) || magic != kSnapshotMagic ||
      !get_u32(source, version) || version != kSnapshotVersion ||
      !get_u64(source, clock) || !get_u64(source, m) || m != size()) {
    return false;
  }
  // Clock first: restore_body pokes stamp at the restored step clock, so
  // replayed values are never "older" than pre-crash commits they equal.
  step_clock_ = clock;
  return restore_body(source);
}

void MemorySystem::snapshot_body(SnapshotSink& sink) {
  const std::uint64_t m = size();
  std::uint64_t nonzero = 0;
  for (std::uint64_t v = 0; v < m; ++v) {
    if (peek(VarId(static_cast<std::uint32_t>(v))) != 0) {
      ++nonzero;
    }
  }
  put_u64(sink, nonzero);
  for (std::uint64_t v = 0; v < m; ++v) {
    const Word value = peek(VarId(static_cast<std::uint32_t>(v)));
    if (value != 0) {
      put_u64(sink, v);
      put_word(sink, value);
    }
  }
}

bool MemorySystem::restore_body(SnapshotSource& source) {
  std::uint64_t count = 0;
  if (!get_u64(source, count)) {
    return false;
  }
  const std::uint64_t m = size();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t var = 0;
    Word value = 0;
    if (!get_u64(source, var) || !get_word(source, value) || var >= m) {
      return false;
    }
    poke(VarId(static_cast<std::uint32_t>(var)), value);
  }
  return true;
}

MemStepCost MemorySystem::step(std::span<const VarId> reads,
                               std::span<Word> read_values,
                               std::span<const VarWrite> writes) {
  PRAMSIM_ASSERT(reads.size() == read_values.size());
  const AccessPlan& plan = step_assembler_.assemble(reads, writes, *this);
  step_ctx_.bind(read_values);
  const MemStepCost cost = serve(plan, step_ctx_);
  step_flags_.assign(step_ctx_.flags().begin(), step_ctx_.flags().end());
  return cost;
}

FlatMemory::FlatMemory(std::uint64_t m_cells) : cells_(m_cells, 0) {}

MemStepCost FlatMemory::serve(const AccessPlan& plan, ServeContext& ctx) {
  const std::span<Word> read_values = ctx.read_values();
  PRAMSIM_ASSERT(plan.reads.size() == read_values.size());
  ctx.stamp_step(advance_step_clock());
  for (std::size_t i = 0; i < plan.reads.size(); ++i) {
    PRAMSIM_ASSERT(plan.reads[i].index() < cells_.size());
    read_values[i] = cells_[plan.reads[i].index()];
  }
  for (const auto& w : plan.writes) {
    PRAMSIM_ASSERT(w.var.index() < cells_.size());
    cells_[w.var.index()] = w.value;
  }
  return MemStepCost{.time = 1,
                     .work = plan.reads.size() + plan.writes.size()};
}

Word FlatMemory::peek(VarId var) const {
  PRAMSIM_ASSERT(var.index() < cells_.size());
  return cells_[var.index()];
}

void FlatMemory::poke(VarId var, Word value) {
  PRAMSIM_ASSERT(var.index() < cells_.size());
  cells_[var.index()] = value;
}

}  // namespace pramsim::pram
