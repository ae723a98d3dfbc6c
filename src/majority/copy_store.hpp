// Timestamped copy storage for the majority-rule scheme (Upfal-Wigderson
// 1987, reviewed in the paper's §1).
//
// Each variable owns r = 2c-1 copies; each copy carries the value and the
// P-RAM step number of its last update. Reads retrieve >= c copies and
// take the freshest; writes stamp >= c copies. Because any two c-subsets
// of 2c-1 copies intersect, the freshest copy in any read set carries the
// latest committed write.
//
// Region granularity: the store keeps copies of W = region_words
// consecutive variables contiguously (copy-major: copy i of the whole
// region, then copy i+1, ...), so a copy's slice of a region is one flat
// span. W = 1 reproduces the classic per-variable rows byte for byte;
// W > 1 lets vote_region() compare whole copy regions with memcmp (the
// bulk healthy path) while every per-word method below keeps its exact
// word-at-a-time semantics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pram/faults.hpp"
#include "pram/types.hpp"
#include "util/assert.hpp"
#include "util/strong_id.hpp"

namespace pramsim::majority {

struct Copy {
  pram::Word value = 0;
  std::uint64_t stamp = 0;  ///< step number of last write (0 = initial)
};

static_assert(sizeof(Copy) == 2 * sizeof(std::uint64_t),
              "Copy must be padding-free so region memcmp compares exactly "
              "the (value, stamp) pairs");

/// Sparse (region, copy-index) -> Copy storage. A region's r copy slices
/// are materialized on its first write; untouched regions read as the
/// initial {0, 0} copy. This keeps full-scale memories (m up to n^2 for
/// n in the thousands) cheap to construct: storage is proportional to the
/// regions a run actually writes, not to m*r.
///
/// Layout: materialized rows sit back to back in fixed-size chunks (a
/// row never moves once materialized), found through a flat
/// open-addressed region index — 16 to 24 bytes of bookkeeping per row
/// on top of its r * region_words copies.
class CopyStore {
 public:
  CopyStore(std::uint64_t m_vars, std::uint32_t redundancy,
            std::uint32_t region_words = 1);

  [[nodiscard]] std::uint64_t num_vars() const { return m_vars_; }
  [[nodiscard]] std::uint32_t redundancy() const { return r_; }
  [[nodiscard]] std::uint32_t region_words() const { return w_; }
  [[nodiscard]] std::uint64_t num_regions() const { return n_regions_; }
  [[nodiscard]] std::uint64_t region_of(VarId var) const {
    return var.index() / w_;
  }
  /// Regions with at least one written copy (live-set accounting; with
  /// region_words == 1 this is exactly "variables with >= 1 written
  /// copy", the classic meaning).
  [[nodiscard]] std::uint64_t touched_vars() const { return regions_.size(); }
  /// True when `var`'s region has a materialized row (>= 1 copy of some
  /// variable in the region ever written). Untouched variables read as
  /// the initial {0, 0} copy everywhere, so repair passes can restore
  /// their redundancy by relocation alone.
  [[nodiscard]] bool touched(VarId var) const {
    return find_row(region_of(var)) != nullptr;
  }

  [[nodiscard]] const Copy& at(VarId var, std::uint32_t copy) const {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    const Copy* data = find_row(region_of(var));
    if (data == nullptr) {
      static const Copy kInitial{};
      return kInitial;
    }
    return data[static_cast<std::size_t>(copy) * w_ + var.index() % w_];
  }

  void write(VarId var, std::uint32_t copy, pram::Word value,
             std::uint64_t stamp) {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    row(var)[static_cast<std::size_t>(copy) * w_ + var.index() % w_] =
        Copy{value, stamp};
  }

  // ----- group-parallel serve surface -----
  //
  // The sparse index's structure must not mutate while group workers write
  // concurrently, so the parallel value phase is two-phase: the serving
  // thread materializes every written variable's region row up front
  // (ensure_row), then workers update DISTINCT variables' slots in place
  // (write_prepared) — pure lookups, no insertion, no growth. Distinct
  // variables of a SHARED region row touch disjoint Copy slots, so the
  // frozen-structure rule carries over to any region width unchanged.

  /// Materialize `var`'s region row (serving thread only, before fan-out).
  void ensure_row(VarId var) { (void)row(var); }

  /// In-place write for a row ensure_row already materialized. Safe to
  /// call concurrently with other write_prepared/reads on DIFFERENT
  /// variables (and different copies of the same variable).
  void write_prepared(VarId var, std::uint32_t copy, pram::Word value,
                      std::uint64_t stamp) {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    Copy* data = find_row(region_of(var));
    PRAMSIM_DASSERT(data != nullptr);
    data[static_cast<std::size_t>(copy) * w_ + var.index() % w_] =
        Copy{value, stamp};
  }

  /// The freshest value among the copies selected by `mask` (bit i =>
  /// copy i participates). Requires a non-empty mask.
  [[nodiscard]] Copy freshest(VarId var, std::uint64_t mask) const;

  /// The globally freshest copy (over all r copies) — the ground truth a
  /// correct majority read must match. Verification only.
  [[nodiscard]] Copy ground_truth(VarId var) const;

  /// Failure injection (tests): overwrite a copy's value *without*
  /// advancing its stamp, emulating a stale/corrupted replica.
  void corrupt(VarId var, std::uint32_t copy, pram::Word bogus_value);

  // ----- copy-level fault surface (degraded-mode protocol) -----

  /// Outcome of a majority vote over a variable's surviving copies.
  struct VoteOutcome {
    Copy winner;                  ///< elected (value, stamp); {0,0} if none
    std::uint32_t survivors = 0;  ///< copies that cast a vote
    std::uint32_t erased = 0;     ///< copies skipped (dead module)
    std::uint32_t dissenting = 0; ///< survivors disagreeing with the winner
  };

  /// Majority vote over all r copies of `var` under fault injection:
  /// copies on modules dead by `step` are erasures; stuck-at copies vote
  /// their stuck value. The winner is the (value, stamp) pair with the
  /// largest multiplicity (ties: fresher stamp, then smaller value — both
  /// deterministic). `modules` is the variable's copy placement (size r).
  /// With write-through stores (store_all) every healthy copy agrees, so
  /// the vote recovers the committed value as long as healthy copies
  /// outnumber every colluding faulty subset — in particular it survives
  /// floor((r-1)/2) arbitrary bad copies with no erasures.
  [[nodiscard]] VoteOutcome vote(VarId var,
                                 std::span<const ModuleId> modules,
                                 std::uint64_t step,
                                 const pram::FaultHooks& hooks) const;

  /// Degraded-mode write-through: store (value, stamp) into every copy of
  /// `var` whose module is alive at `step` (the caller's P-RAM step
  /// clock), letting `hooks` corrupt individual stores. `reroll` is the
  /// corruption re-roll key passed to corrupt_write — protocol writes use
  /// the stamp itself; scrub repair passes use a dedicated counter so a
  /// repair never replays the corruption roll of a same-step write.
  /// Returns the number of copies lost to dead modules; the count of
  /// silently corrupted stores is added to `corrupt_stores`.
  std::uint32_t store_all(VarId var, std::span<const ModuleId> modules,
                          pram::Word value, std::uint64_t stamp,
                          std::uint64_t reroll, std::uint64_t step,
                          const pram::FaultHooks& hooks,
                          std::uint64_t& corrupt_stores);

  /// store_all for the group-parallel degraded path: identical effects,
  /// but writes through write_prepared — the caller must have
  /// ensure_row'd `var` on the serving thread first.
  std::uint32_t store_all_prepared(VarId var,
                                   std::span<const ModuleId> modules,
                                   pram::Word value, std::uint64_t stamp,
                                   std::uint64_t reroll, std::uint64_t step,
                                   const pram::FaultHooks& hooks,
                                   std::uint64_t& corrupt_stores);

  // ----- bulk region surface (the hailburst vote_memory idiom) -----

  /// vote_region found no copy whose whole region a strict majority of
  /// the live copies matches bytewise.
  static constexpr std::int32_t kNoRegionMajority = -1;

  /// Region-wise majority vote: compare whole per-copy regions with
  /// memcmp, skipping copies masked out of `live_mask` (erased replicas),
  /// and return the index of a live copy whose region a strict majority
  /// of the live copies matches bytewise — or kNoRegionMajority when no
  /// bytewise majority exists, in which case callers fall back to the
  /// word-granular vote() per variable to localize the dissent.
  ///
  /// With `dissenting` == nullptr the scan early-exits as soon as some
  /// candidate reaches a strict majority (the fast healthy path);
  /// otherwise all live copies are compared and *dissenting receives the
  /// exact count of live copies whose region differs from the winner's
  /// (0 == the whole region is bytewise unanimous).
  ///
  /// Byte comparison of Copy spans compares exactly the (value, stamp)
  /// pairs (Copy is padding-free by the static_assert above), so a
  /// unanimous region certifies per-word agreement on values AND stamps.
  [[nodiscard]] std::int32_t vote_region(
      std::uint64_t region, std::uint64_t live_mask,
      std::uint32_t* dissenting = nullptr) const;

  /// Copy `copy`'s contiguous slice of `region` (region_words() entries);
  /// empty for untouched regions (every copy reads the initial {0, 0}).
  [[nodiscard]] std::span<const Copy> region_span(std::uint64_t region,
                                                  std::uint32_t copy) const {
    PRAMSIM_DASSERT(region < n_regions_ && copy < r_);
    const Copy* data = find_row(region);
    if (data == nullptr) {
      return {};
    }
    return {data + static_cast<std::size_t>(copy) * w_, w_};
  }

  /// Bulk repair: memcpy copy `from`'s whole region slice over copy
  /// `to`'s — values AND stamps — after a region-wise vote elected
  /// `from`. No-op on untouched regions (all copies already agree).
  void copy_region(std::uint64_t region, std::uint32_t from,
                   std::uint32_t to);

  // ----- snapshot surface (durability checkpoints) -----

  /// The materialized regions, in materialization order. Serializers
  /// sort them so the snapshot byte stream is canonical.
  [[nodiscard]] std::span<const std::uint64_t> regions() const {
    return regions_;
  }

  /// A materialized region's whole row: r * region_words copies,
  /// copy-major.
  [[nodiscard]] std::span<const Copy> region_row(std::uint64_t region) const {
    const Copy* data = find_row(region);
    PRAMSIM_ASSERT(data != nullptr);
    return {data, row_len_};
  }

  /// Install one serialized region row — values AND stamps — replacing
  /// any existing row. Restore-only: `copies` must hold exactly
  /// redundancy() * region_words() entries.
  void restore_row(std::uint64_t region, std::span<const Copy> copies) {
    PRAMSIM_ASSERT(region < n_regions_ && copies.size() == row_len_);
    std::copy(copies.begin(), copies.end(), row_of(region));
  }

  /// Drop every materialized row (restore resets to this blank state
  /// before installing the snapshot's rows, so a second restore onto the
  /// same instance is exact, not additive).
  void clear_rows();

 private:
  [[nodiscard]] Copy* row(VarId var) { return row_of(region_of(var)); }
  /// Pointer to `var`'s Copy for copy 0, or nullptr when the region is
  /// untouched; copy i lives at base[i * region_words()].
  [[nodiscard]] const Copy* column(VarId var) const {
    const Copy* data = find_row(region_of(var));
    return data == nullptr ? nullptr : data + var.index() % w_;
  }

  /// `region`'s row, or nullptr when it is untouched.
  [[nodiscard]] Copy* find_row(std::uint64_t region) const {
    if (slots_.empty()) {
      return nullptr;
    }
    for (std::size_t i = slot_of(region);; i = (i + 1) & (slots_.size() - 1)) {
      const std::uint32_t entry = slots_[i];
      if (entry == 0) {
        return nullptr;
      }
      if (regions_[entry - 1] == region) {
        return row_data(entry - 1);
      }
    }
  }
  /// `region`'s row, materialized (all copies {0, 0}) on first use.
  [[nodiscard]] Copy* row_of(std::uint64_t region);
  [[nodiscard]] std::size_t slot_of(std::uint64_t region) const {
    return (region * 0x9E3779B97F4A7C15ULL) >> slot_shift_;
  }
  [[nodiscard]] Copy* row_data(std::size_t row) const {
    return chunks_[row >> chunk_shift_].get() +
           (row & ((std::size_t{1} << chunk_shift_) - 1)) * row_len_;
  }
  /// Index the materialized rows into `slots` empty slots.
  void rehash(std::size_t slots);

  std::uint64_t m_vars_;
  std::uint32_t r_;
  std::uint32_t w_;
  std::uint64_t n_regions_;
  std::size_t row_len_;  ///< r * region_words copies per row
  int chunk_shift_;      ///< log2 of the rows per storage chunk
  std::vector<std::unique_ptr<Copy[]>> chunks_;
  std::vector<std::uint64_t> regions_;  ///< row -> region
  /// Open-addressed region index (Fibonacci hashing, linear probing,
  /// load <= 1/2): row + 1, or 0 for an empty slot.
  std::vector<std::uint32_t> slots_;
  int slot_shift_ = 64;
};

}  // namespace pramsim::majority
