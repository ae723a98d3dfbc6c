// Timestamped copy storage for the majority-rule scheme (Upfal-Wigderson
// 1987, reviewed in the paper's §1).
//
// Each variable owns r = 2c-1 copies; each copy carries the value and the
// P-RAM step number of its last update. Reads retrieve >= c copies and
// take the freshest; writes stamp >= c copies. Because any two c-subsets
// of 2c-1 copies intersect, the freshest copy in any read set carries the
// latest committed write.
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
              "Copy must be padding-free so a row serializes as exactly its "
              "(value, stamp) pairs");

/// Sparse (variable, copy-index) -> Copy storage. A variable's row of r
/// copies is materialized on its first write; untouched variables read as
/// the initial {0, 0} copy. This keeps full-scale memories (m up to n^2
/// for n in the thousands) cheap to construct: storage is proportional
/// to the variables a run actually writes, not to m*r.
///
/// Layout: materialized rows sit back to back in fixed-size chunks (a
/// row never moves once materialized), found through a flat
/// open-addressed variable index — 16 to 24 bytes of bookkeeping per row
/// on top of its r copies.
class CopyStore {
 public:
  CopyStore(std::uint64_t m_vars, std::uint32_t redundancy);

  [[nodiscard]] std::uint64_t num_vars() const { return m_vars_; }
  [[nodiscard]] std::uint32_t redundancy() const { return r_; }
  /// Variables with at least one written copy (live-set accounting).
  [[nodiscard]] std::uint64_t touched_vars() const { return vars_.size(); }
  /// True when `var` has a materialized row (>= 1 copy ever written).
  /// Untouched variables read as the initial {0, 0} copy everywhere, so
  /// repair passes can restore their redundancy by relocation alone.
  [[nodiscard]] bool touched(VarId var) const {
    return find_row(var.index()) != nullptr;
  }

  [[nodiscard]] const Copy& at(VarId var, std::uint32_t copy) const {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    const Copy* data = find_row(var.index());
    if (data == nullptr) {
      static const Copy kInitial{};
      return kInitial;
    }
    return data[copy];
  }

  void write(VarId var, std::uint32_t copy, pram::Word value,
             std::uint64_t stamp) {
    PRAMSIM_DASSERT(var.index() < m_vars_ && copy < r_);
    row_of(var.index())[copy] = Copy{value, stamp};
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

  // ----- snapshot surface (durability checkpoints) -----

  /// The materialized variables, in materialization order. Serializers
  /// sort them so the snapshot byte stream is canonical.
  [[nodiscard]] std::span<const std::uint64_t> rows() const { return vars_; }

  /// A materialized variable's whole row: its r copies.
  [[nodiscard]] std::span<const Copy> row(std::uint64_t var) const {
    const Copy* data = find_row(var);
    PRAMSIM_ASSERT(data != nullptr);
    return {data, r_};
  }

  /// Install one serialized row — values AND stamps — replacing any
  /// existing row. Restore-only: `copies` must hold exactly redundancy()
  /// entries.
  void restore_row(std::uint64_t var, std::span<const Copy> copies) {
    PRAMSIM_ASSERT(var < m_vars_ && copies.size() == r_);
    std::copy(copies.begin(), copies.end(), row_of(var));
  }

  /// Drop every materialized row (restore resets to this blank state
  /// before installing the snapshot's rows, so a second restore onto the
  /// same instance is exact, not additive).
  void clear_rows();

 private:
  /// `var`'s row, or nullptr when it is untouched.
  [[nodiscard]] Copy* find_row(std::uint64_t var) const {
    if (slots_.empty()) {
      return nullptr;
    }
    for (std::size_t i = slot_of(var);; i = (i + 1) & (slots_.size() - 1)) {
      const std::uint32_t entry = slots_[i];
      if (entry == 0) {
        return nullptr;
      }
      if (vars_[entry - 1] == var) {
        return row_data(entry - 1);
      }
    }
  }
  /// `var`'s row, materialized (all copies {0, 0}) on first use.
  [[nodiscard]] Copy* row_of(std::uint64_t var);
  [[nodiscard]] std::size_t slot_of(std::uint64_t var) const {
    return (var * 0x9E3779B97F4A7C15ULL) >> slot_shift_;
  }
  [[nodiscard]] Copy* row_data(std::size_t row) const {
    return chunks_[row >> chunk_shift_].get() +
           (row & ((std::size_t{1} << chunk_shift_) - 1)) * r_;
  }
  /// Index the materialized rows into `slots` empty slots.
  void rehash(std::size_t slots);

  std::uint64_t m_vars_;
  std::uint32_t r_;
  int chunk_shift_;  ///< log2 of the rows per storage chunk
  std::vector<std::unique_ptr<Copy[]>> chunks_;
  std::vector<std::uint64_t> vars_;  ///< row -> variable
  /// Open-addressed variable index (Fibonacci hashing, linear probing,
  /// load <= 1/2): row + 1, or 0 for an empty slot.
  std::vector<std::uint32_t> slots_;
  int slot_shift_ = 64;
};

}  // namespace pramsim::majority
