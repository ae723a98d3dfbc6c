// IdaMemory: the Schuster (1987) shared-memory organization the paper
// contrasts with its own (§1): the m variables are grouped into m/b
// blocks; each block is recoded into d = Theta(b) shares stored on d
// distinct modules. Storage grows by the constant factor d/b — like the
// paper's scheme, constant redundancy — but every access must decode a
// whole block, so Theta(b) = Theta(log n) variables are *processed* per
// variable accessed. The bench contrasts exactly this trade.
//
// Cost model: modules serve one share per round. Reads fetch the b shares
// of the block whose modules are least loaded this step (the slack d - b
// is the scheme's congestion-dodging trick); writes are read-modify-write
// and must update all d shares. Reads of a step are served first (they
// see pre-step state), then writes commit.
//
// Share storage is sparse (same trick as the sparse majority::CopyStore):
// a block's d shares are materialized on its first write; untouched
// blocks decode from one precomputed all-zero encoding, so full-scale
// memories (m = n^k) are cheap to build.
//
// Under pram::FaultHooks the scheme runs degraded: shares on dead modules
// are erasures, reconstruction interpolates from ANY b surviving share
// indices (the erasure-code guarantee, exercised for real), and a block
// with fewer than b survivors is uncorrectable. Silently corrupted or
// stuck shares poison the Lagrange interpolation — IDA is an erasure
// code, not an error-correcting one, which is exactly the reliability
// contrast with majority voting.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ida/dispersal.hpp"
#include "memmap/memory_map.hpp"
#include "pram/memory_system.hpp"
#include "util/stats.hpp"

namespace pramsim::ida {

struct IdaMemoryConfig {
  std::uint32_t b = 4;          ///< block size (variables per block)
  std::uint32_t d = 8;          ///< shares per block
  std::uint32_t n_modules = 64; ///< modules shares are spread over (>= d)
  std::uint64_t seed = 1;       ///< share-placement seed
  /// Store a per-share checksum word alongside every share and verify it
  /// on decode: a share whose value no longer matches its checksum
  /// (stuck cell, silently corrupted store) is DETECTED and excluded
  /// from the interpolation like an erasure — silent block poisoning
  /// becomes a masked fault (enough survivors) or a flagged outage (too
  /// few), never a lie. Costs one extra word per share (storage factor
  /// 2d/b instead of d/b); bench_faults quantifies the trade.
  bool check_shares = false;
};

class IdaMemory final : public pram::MemorySystem {
 public:
  IdaMemory(std::uint64_t m_vars, IdaMemoryConfig config);

  /// Serve a step: the plan's groups ARE this scheme's blocks
  /// (plan_group_of = block index) — phase 1 walks read groups, phase 2
  /// write groups, both in ascending block order (which fixes the
  /// least-loaded share selection order), decoding into a per-instance
  /// flat buffer.
  pram::MemStepCost serve(const pram::AccessPlan& plan,
                          pram::ServeContext& ctx) override;

  /// Plans group by block: requests in one group share one decode.
  [[nodiscard]] std::uint64_t plan_group_of(VarId var) const override {
    return block_of(var);
  }
  [[nodiscard]] bool wants_plan_groups() const override { return true; }

  [[nodiscard]] std::uint64_t size() const override { return m_vars_; }
  [[nodiscard]] pram::Word peek(VarId var) const override;
  void poke(VarId var, pram::Word value) override;
  [[nodiscard]] double storage_redundancy() const override {
    return disperser_.storage_factor() * (config_.check_shares ? 2.0 : 1.0);
  }
  [[nodiscard]] std::uint32_t num_modules() const override {
    return config_.n_modules;
  }
  bool set_fault_hooks(const pram::FaultHooks* hooks) override {
    hooks_ = hooks;
    return true;
  }

  /// Native scrub: walk the block space from a persistent cursor; every
  /// block with shares on dead modules that is still reconstructible
  /// (>= b survivors) is decoded, its lost shares RELOCATED to
  /// deterministically-chosen healthy modules, and the block re-dispersed
  /// onto the repaired placement. One budget unit = one block scanned.
  /// Blocks below threshold stay lost (nothing to re-disperse from); a
  /// pass over a healthy block writes nothing.
  pram::ScrubResult scrub(std::uint64_t budget) override;
  [[nodiscard]] pram::ReliabilityStats reliability() const override {
    return reliability_;
  }

  // ----- scheme accounting -----
  [[nodiscard]] double storage_factor() const {
    return disperser_.storage_factor();
  }
  [[nodiscard]] std::uint32_t block_size() const { return config_.b; }
  [[nodiscard]] std::uint64_t num_blocks() const { return n_blocks_; }
  /// Blocks with a materialized share row (sparse-storage accounting).
  [[nodiscard]] std::uint64_t touched_blocks() const {
    return shares_.size();
  }
  /// Variables processed (decoded) per variable accessed so far.
  [[nodiscard]] double work_amplification() const;
  [[nodiscard]] std::uint64_t share_accesses() const {
    return share_accesses_;
  }

 protected:
  /// Native snapshot: the share rows (shares, then checksums) in sorted
  /// block order, the scrub relocation overlay, the encode counter
  /// (corruption re-roll namespace), and the scrub cursor. The
  /// peek/poke default would re-encode every block and lose relocations;
  /// this path restores the exact stored share words.
  void snapshot_body(pram::SnapshotSink& sink) override;
  [[nodiscard]] bool restore_body(pram::SnapshotSource& source) override;

 private:
  [[nodiscard]] std::uint64_t block_of(VarId var) const {
    return var.index() / config_.b;
  }
  /// `block`'s share row — d shares, then d checksums when
  /// check_shares — materialized on first use as the shared zero
  /// encoding with checksums 0. A row exists exactly when encode_block
  /// has run for the block.
  std::vector<pram::Word>& block_row(std::uint64_t block);
  [[nodiscard]] bool block_written(std::uint64_t block) const {
    return shares_.contains(block);
  }
  /// Share j of `block` as stored (all-zero encoding if untouched).
  [[nodiscard]] pram::Word share_at(std::uint64_t block,
                                    std::uint32_t j) const;
  /// Stored checksum word of share j; unwritten blocks fall back to the
  /// checksum the zero encoding's writer would have stored.
  [[nodiscard]] pram::Word checksum_at(std::uint64_t block,
                                       std::uint32_t j) const;
  /// The checksum a share word SHOULD carry: a seeded hash of
  /// (block, share index, value), computed by the writer from the true
  /// encoded word — so a stuck cell or a store-time corruption leaves a
  /// mismatched pair behind.
  [[nodiscard]] static pram::Word share_checksum(std::uint64_t block,
                                                 std::uint32_t j,
                                                 pram::Word value);
  /// Outcome of one block decode under fault hooks.
  enum class BlockStatus : std::uint8_t { kOk, kDegraded, kLost };
  /// Decode a block and account erasures/threshold misses into
  /// reliability_ when running under fault hooks; `status` (when given)
  /// is set to kDegraded / kLost for reconstructed-around / lost blocks.
  [[nodiscard]] std::vector<pram::Word> decode_block(
      std::uint64_t block, BlockStatus* status = nullptr);
  /// The recovery rule itself (shared by decode_block and the faulted
  /// peek): healthy path reads shares 0..b-1; under fault hooks it
  /// interpolates from the first b SURVIVING share indices. Reports dead
  /// shares in `erased`, stuck shares that silently joined the
  /// interpolation in `faulty`, and clears `ok` (returning the zero
  /// block) when fewer than b shares survive.
  [[nodiscard]] std::vector<pram::Word> recover_block(std::uint64_t block,
                                                      std::uint32_t* erased,
                                                      std::uint32_t* faulty,
                                                      bool* ok) const;
  /// Healthy decode of `block` straight from its stored share row into
  /// the b words at `out`; an untouched block decodes to zeros (the zero
  /// block's exact recovery). No telemetry: callers use it only when
  /// hooks_ == nullptr.
  void decode_healthy(std::uint64_t block, pram::Word* out) const;
  void encode_block(std::uint64_t block, std::span<const pram::Word> values);
  /// The block's CURRENT share placement: the hashed placement with
  /// scrub relocations applied on top.
  void placement_into_current(std::uint64_t block,
                              std::span<ModuleId> out) const;

  std::uint64_t m_vars_;
  IdaMemoryConfig config_;
  Disperser disperser_;
  std::uint64_t n_blocks_;
  /// Sparse share storage: block -> its share row (layout above),
  /// materialized on the block's first write. Untouched blocks read as
  /// zero_shares_.
  std::unordered_map<std::uint64_t, std::vector<pram::Word>> shares_;
  std::vector<pram::Word> zero_shares_;  ///< encoding of the zero block
  std::vector<std::uint32_t> identity_indices_;  ///< {0..b-1} (healthy set)
  std::vector<pram::Word> encode_scratch_;       ///< d share words
  /// Placement of each block's d shares over the modules.
  memmap::HashedMap placement_;
  std::uint64_t share_accesses_ = 0;
  std::uint64_t vars_accessed_ = 0;
  std::uint64_t vars_processed_ = 0;
  std::uint64_t store_ops_ = 0;  ///< encode counter (corruption stamp)
  /// Scrub relocation overlay: (block * d + share) -> replacement module
  /// for shares moved off dead modules. Lookup-only.
  std::unordered_map<std::uint64_t, ModuleId> relocated_;
  std::uint64_t scrub_cursor_ = 0;  ///< next block a scrub pass scans
  const pram::FaultHooks* hooks_ = nullptr;  ///< non-owning; null = healthy
  pram::ReliabilityStats reliability_;

  // ----- serve() scratch (reused across steps; meaningless between) -----
  std::vector<std::uint32_t> module_load_;     ///< dense, reset via touched
  std::vector<std::uint32_t> touched_modules_;
  std::vector<std::uint32_t> order_;           ///< least-loaded share pick
  std::vector<ModuleId> copy_scratch_;
  std::vector<pram::Word> decoded_store_;      ///< group g at [g*b,(g+1)*b)
  std::vector<std::uint8_t> group_has_read_;
  std::vector<BlockStatus> group_status_;
};

}  // namespace pramsim::ida
