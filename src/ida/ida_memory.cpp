#include "ida/ida_memory.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pramsim::ida {

IdaMemory::IdaMemory(std::uint64_t m_vars, IdaMemoryConfig config)
    : m_vars_(m_vars),
      config_(config),
      disperser_({config.b, config.d}),
      n_blocks_(util::ceil_div(m_vars, config.b)),
      placement_(n_blocks_, config.n_modules, config.d, config.seed) {
  PRAMSIM_ASSERT(config_.n_modules >= config_.d);
  config_.region_blocks = std::max<std::uint32_t>(config_.region_blocks, 1);
  n_regions_ = util::ceil_div(n_blocks_, config_.region_blocks);
  // Region-row geometry (see the header): d share spans of R words, the
  // matching checksum spans when check_shares, then the written-block
  // flag bits.
  const std::size_t R = config_.region_blocks;
  flag_base_ = static_cast<std::size_t>(config_.d) * R *
               (config_.check_shares ? 2 : 1);
  row_words_ = flag_base_ + (R + 63) / 64;
  // One encoding of the all-zero block serves every untouched block, so
  // construction is O(d) regardless of m (sparse storage).
  const std::vector<pram::Word> zero_block(config_.b, 0);
  zero_shares_ = disperser_.encode_words(zero_block);
  identity_indices_.resize(config_.b);
  for (std::uint32_t j = 0; j < config_.b; ++j) {
    identity_indices_[j] = j;
  }
  encode_scratch_.resize(config_.d);
}

pram::Word IdaMemory::share_checksum(std::uint64_t block, std::uint32_t j,
                                     pram::Word value) {
  util::SplitMix64 mix(value ^ block * 0x9E3779B97F4A7C15ULL ^
                       (j + 1) * 0xBF58476D1CE4E5B9ULL);
  return mix.next();
}

std::vector<pram::Word>& IdaMemory::region_row(std::uint64_t block) {
  const auto [it, fresh] = shares_.try_emplace(region_of_block(block));
  if (fresh) {
    auto& row = it->second;
    row.assign(row_words_, 0);
    // Every block slot starts as the shared zero encoding; checksums and
    // written-block flags stay 0 (checksum_at falls back to the salted
    // zero checksum for blocks whose flag is still clear).
    const std::size_t R = config_.region_blocks;
    for (std::uint32_t s = 0; s < config_.d; ++s) {
      std::fill_n(row.begin() + static_cast<std::ptrdiff_t>(s * R), R,
                  zero_shares_[s]);
    }
  }
  return it->second;
}

bool IdaMemory::block_written(std::uint64_t block) const {
  const auto it = shares_.find(region_of_block(block));
  if (it == shares_.end()) {
    return false;
  }
  const std::uint64_t t = block % config_.region_blocks;
  const auto bits =
      static_cast<std::uint64_t>(it->second[flag_base_ + t / 64]);
  return ((bits >> (t % 64)) & 1ULL) != 0;
}

pram::Word IdaMemory::checksum_at(std::uint64_t block,
                                  std::uint32_t j) const {
  if (!block_written(block)) {
    // Unwritten block: the stored checksum is, by definition, the one
    // the zero encoding's writer would have computed.
    return share_checksum(block, j, zero_shares_[j]);
  }
  const auto& row = shares_.at(region_of_block(block));
  const std::size_t R = config_.region_blocks;
  return row[static_cast<std::size_t>(config_.d) * R +
             static_cast<std::size_t>(j) * R + block % R];
}

pram::Word IdaMemory::share_at(std::uint64_t block, std::uint32_t j) const {
  const auto it = shares_.find(region_of_block(block));
  if (it == shares_.end()) {
    return zero_shares_[j];
  }
  const std::size_t R = config_.region_blocks;
  return it->second[static_cast<std::size_t>(j) * R + block % R];
}

void IdaMemory::placement_into_current(std::uint64_t block,
                                       std::span<ModuleId> out) const {
  placement_.copies_into(VarId(static_cast<std::uint32_t>(block)), out);
  if (relocated_.empty()) {
    return;
  }
  for (std::uint32_t j = 0; j < config_.d; ++j) {
    const auto it = relocated_.find(block * config_.d + j);
    if (it != relocated_.end()) {
      out[j] = it->second;
    }
  }
}

std::vector<pram::Word> IdaMemory::recover_block(std::uint64_t block,
                                                 std::uint32_t* erased,
                                                 std::uint32_t* faulty,
                                                 bool* ok) const {
  if (hooks_ == nullptr) {
    std::vector<pram::Word> out(config_.b);
    decode_blocks_healthy(block, 1, out.data());
    return out;
  }
  std::vector<std::uint32_t> indices;
  std::vector<pram::Word> vals;
  indices.reserve(config_.b);
  vals.reserve(config_.b);
  std::vector<ModuleId> modules(config_.d);
  placement_into_current(block, modules);
  for (std::uint32_t j = 0; j < config_.d; ++j) {
    if (hooks_->module_dead(modules[j], steps_served())) {
      ++*erased;
      continue;
    }
    if (indices.size() == config_.b) {
      continue;  // already have enough survivors; keep counting erasures
    }
    pram::Word value = share_at(block, j);
    pram::Word stuck = 0;
    const bool is_stuck = hooks_->stuck_at(block, j, steps_served(), stuck);
    if (is_stuck) {
      value = stuck;
    }
    if (config_.check_shares &&
        share_checksum(block, j, value) != checksum_at(block, j)) {
      // DETECTED bad share (stuck cell or corrupted store): its value no
      // longer matches the checksum its writer stored, so it is excluded
      // from the interpolation like an erasure — the checksum turns
      // silent poison into a known-bad share.
      ++*erased;
      obs_event(obs::EventKind::kChecksumReject, block, j);
      obs_count("ida.checksum.rejects");
      continue;
    }
    if (is_stuck) {
      // Undetected stuck share: it joins the interpolation and silently
      // poisons the whole block (bare IDA corrects erasures, not errors).
      ++*faulty;
    }
    indices.push_back(j);
    vals.push_back(value);
  }
  if (indices.size() < config_.b) {
    *ok = false;
    return std::vector<pram::Word>(config_.b, 0);
  }
  // Same interpolation recover_words performs, routed through the bulk
  // codec (count 1, stride 1): the recovery matrix folds the
  // value-independent Lagrange factors, so the words are bit-identical
  // by exact GF(256) arithmetic.
  std::vector<pram::Word> out(config_.b);
  disperser_.decode_regions(indices, vals.data(), 1, 1, out.data());
  return out;
}

void IdaMemory::decode_blocks_healthy(std::uint64_t first_block,
                                      std::uint32_t count,
                                      pram::Word* out) const {
  PRAMSIM_ASSERT(count >= 1);
  PRAMSIM_ASSERT(region_of_block(first_block) ==
                 region_of_block(first_block + count - 1));
  const auto it = shares_.find(region_of_block(first_block));
  if (it == shares_.end()) {
    // Untouched region: the zero block decodes to zeros, exactly.
    std::fill_n(out, static_cast<std::size_t>(count) * config_.b, 0);
    return;
  }
  disperser_.decode_regions(identity_indices_,
                            it->second.data() + first_block %
                                                    config_.region_blocks,
                            config_.region_blocks, count, out);
}

std::vector<pram::Word> IdaMemory::decode_block(std::uint64_t block,
                                                BlockStatus* status) {
  std::uint32_t erased = 0;
  std::uint32_t faulty = 0;
  bool ok = true;
  auto vals = recover_block(block, &erased, &faulty, &ok);
  if (hooks_ != nullptr) {
    // Share-unit counters accrue per decode; the READ-unit counters
    // (faults_masked, uncorrectable) are attributed per variable read
    // in serve(), so cross-scheme reliability ratios compare like units.
    reliability_.erasures_skipped += erased;
    reliability_.units_faulty += erased + faulty;
    if (!ok) {
      reliability_.shares_short +=
          config_.b - (config_.d - std::min(erased, config_.d));
      if (status != nullptr) {
        *status = BlockStatus::kLost;
      }
      obs_event(obs::EventKind::kUncorrectable, block, erased, faulty);
      obs_count("ida.blocks.lost");
    } else if (erased + faulty > 0) {
      if (status != nullptr) {
        *status = BlockStatus::kDegraded;
      }
      obs_event(obs::EventKind::kDegradedDecode, block, erased, faulty);
      obs_count("ida.blocks.degraded");
    }
  }
  return vals;
}

void IdaMemory::encode_block(std::uint64_t block,
                             std::span<const pram::Word> values) {
  // One block is a bulk encode of count 1 (stride 1 packs the d share
  // words densely into the scratch) — same Horner products the classic
  // per-word encode_words computed, via the generator-matrix rows.
  disperser_.encode_regions(values.data(), 1, encode_scratch_.data(), 1);
  auto& row = region_row(block);
  const std::size_t R = config_.region_blocks;
  const std::uint64_t t = block % R;
  row[flag_base_ + t / 64] = static_cast<pram::Word>(
      static_cast<std::uint64_t>(row[flag_base_ + t / 64]) |
      (1ULL << (t % 64)));
  const std::size_t check_base = static_cast<std::size_t>(config_.d) * R;
  if (hooks_ == nullptr) {
    for (std::uint32_t j = 0; j < config_.d; ++j) {
      row[static_cast<std::size_t>(j) * R + t] = encode_scratch_[j];
      if (config_.check_shares) {
        row[check_base + static_cast<std::size_t>(j) * R + t] =
            share_checksum(block, j, encode_scratch_[j]);
      }
    }
    return;
  }
  ++store_ops_;
  std::vector<ModuleId> modules(config_.d);
  placement_into_current(block, modules);
  for (std::uint32_t j = 0; j < config_.d; ++j) {
    if (hooks_->module_dead(modules[j], steps_served())) {
      ++reliability_.writes_dropped;
      continue;
    }
    pram::Word word = encode_scratch_[j];
    if (hooks_->corrupt_write(block, j, store_ops_, steps_served(), word)) {
      ++reliability_.corrupt_stores;
    }
    row[static_cast<std::size_t>(j) * R + t] = word;
    if (config_.check_shares) {
      // The checksum is computed by the WRITER from the true encoded
      // word (and modeled as stored intact), so a corrupted data word
      // leaves a mismatched pair the next decode detects.
      row[check_base + static_cast<std::size_t>(j) * R + t] =
          share_checksum(block, j, encode_scratch_[j]);
    }
  }
}

pram::MemStepCost IdaMemory::serve(const pram::AccessPlan& plan,
                                   pram::ServeContext& ctx) {
  // wants_plan_groups() is always true here, so only an empty plan
  // arrives without groups (and then every loop below is empty).
  PRAMSIM_ASSERT(plan.grouped() || plan.requests.empty());
  const std::span<pram::Word> read_values = ctx.read_values();
  PRAMSIM_ASSERT(plan.reads.size() == read_values.size());
  advance_step_clock();
  ctx.stamp_step(steps_served());
  obs_count("ida.steps");
  obs_count("ida.reads", plan.reads.size());
  obs_count("ida.writes", plan.writes.size());
  obs::PhaseSet* timing = obs_timing();
  pram::MemStepCost cost;
  const std::uint64_t share_accesses_before = share_accesses_;

  // The plan's groups are this scheme's blocks, ascending: one decode
  // and at most one re-encode per group.
  const std::size_t n_groups = plan.num_groups();
  group_has_read_.assign(n_groups, 0);
  group_status_.assign(n_groups, BlockStatus::kOk);
  for (std::size_t g = 0; g < n_groups; ++g) {
    for (std::uint32_t i = plan.group_offsets[g];
         i < plan.group_offsets[g + 1]; ++i) {
      if (plan.requests[plan.group_requests[i]].is_read) {
        group_has_read_[g] = 1;
        break;
      }
    }
  }

  // Module round accounting: modules serve one share per round, so a
  // phase's duration is its maximum per-module share count. The load
  // array is per-instance and reset via the touched list; the phase max
  // is tracked incrementally.
  module_load_.resize(config_.n_modules, 0);
  copy_scratch_.resize(config_.d);
  order_.resize(config_.d);
  std::uint32_t phase_max = 0;
  auto reset_loads = [&] {
    for (const auto module : touched_modules_) {
      module_load_[module] = 0;
    }
    touched_modules_.clear();
    phase_max = 0;
  };
  auto bump = [&](std::uint32_t module) {
    if (module_load_[module]++ == 0) {
      touched_modules_.push_back(module);
    }
    phase_max = std::max(phase_max, module_load_[module]);
  };
  auto charge_read_block = [&](std::uint64_t blk) {
    placement_into_current(blk, copy_scratch_);
    // Pick the b least-loaded modules among the d holding shares — the
    // d-b slack is what lets the scheme dodge congestion. Sorting by
    // (load, share index) reproduces the stable least-loaded order.
    for (std::uint32_t j = 0; j < config_.d; ++j) {
      order_[j] = j;
    }
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b2) {
                const std::uint32_t la =
                    module_load_[copy_scratch_[a].index()];
                const std::uint32_t lb =
                    module_load_[copy_scratch_[b2].index()];
                return la != lb ? la < lb : a < b2;
              });
    for (std::uint32_t j = 0; j < config_.b; ++j) {
      bump(static_cast<std::uint32_t>(copy_scratch_[order_[j]].index()));
    }
    share_accesses_ += config_.b;
    vars_processed_ += config_.b;
  };
  auto charge_write_block = [&](std::uint64_t blk) {
    placement_into_current(blk, copy_scratch_);
    for (std::uint32_t j = 0; j < config_.d; ++j) {
      bump(static_cast<std::uint32_t>(copy_scratch_[j].index()));
    }
    share_accesses_ += config_.d;
    vars_processed_ += config_.b;
  };

  decoded_store_.resize(n_groups * config_.b);
  auto decode_group = [&](std::size_t g) {
    const std::uint64_t blk = plan.group_keys[g];
    if (hooks_ == nullptr) {
      decode_blocks_healthy(blk, 1, decoded_store_.data() + g * config_.b);
      return;
    }
    const auto vals = decode_block(blk, &group_status_[g]);
    std::copy(vals.begin(), vals.end(),
              decoded_store_.begin() + static_cast<std::ptrdiff_t>(
                                           g * config_.b));
  };

  // ---- phase 1: reads (pre-step state) -----------------------------
  reset_loads();
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (group_has_read_[g]) {
      charge_read_block(plan.group_keys[g]);
    }
  }
  {
    obs::ScopedPhase timer(timing, obs::Phase::kDecode);
    if (hooks_ == nullptr) {
      // Healthy fast path: group keys ascend, and consecutive groups land
      // block-major in decoded_store_, so each maximal run of consecutive
      // read blocks inside one storage region recodes through ONE bulk
      // decode_regions call over the stored share spans.
      std::size_t g = 0;
      while (g < n_groups) {
        if (!group_has_read_[g]) {
          ++g;
          continue;
        }
        const std::uint64_t blk0 = plan.group_keys[g];
        std::uint32_t len = 1;
        while (g + len < n_groups && group_has_read_[g + len] &&
               plan.group_keys[g + len] == blk0 + len &&
               region_of_block(blk0 + len) == region_of_block(blk0)) {
          ++len;
        }
        decode_blocks_healthy(blk0, len,
                              decoded_store_.data() + g * config_.b);
        g += len;
      }
    } else {
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (group_has_read_[g]) {
          decode_group(g);
        }
      }
    }
  }
  if (hooks_ != nullptr) {
    ctx.enable_flags();
  }
  for (std::size_t i = 0; i < plan.reads.size(); ++i) {
    const std::uint32_t g = plan.request_group[plan.read_request[i]];
    read_values[i] =
        decoded_store_[g * config_.b + plan.reads[i].index() % config_.b];
    ++vars_accessed_;
    if (hooks_ != nullptr) {
      ++reliability_.reads_served;
      // Every read of an under-threshold block is a FLAGGED loss;
      // reads of a degraded-but-reconstructed block are masked faults.
      if (group_status_[g] == BlockStatus::kLost) {
        ctx.flag_read(i);
        ++reliability_.uncorrectable;
      } else if (group_status_[g] == BlockStatus::kDegraded) {
        ++reliability_.faults_masked;
      }
    }
  }
  const std::uint32_t read_rounds = phase_max;

  // ---- phase 2: writes (read-modify-write per block) ---------------
  reset_loads();
  obs::ScopedPhase encode_timer(timing, obs::Phase::kEncode);
  for (std::size_t g = 0; g < n_groups; ++g) {
    bool has_write = false;
    for (std::uint32_t j = plan.group_offsets[g];
         j < plan.group_offsets[g + 1]; ++j) {
      if (plan.request_write[plan.group_requests[j]] !=
          pram::AccessPlan::kNone) {
        has_write = true;
        break;
      }
    }
    if (!has_write) {
      continue;
    }
    // The block must be fetched (b shares) unless this step already read
    // it, then re-encoded and fully rewritten (d shares).
    const std::uint64_t blk = plan.group_keys[g];
    if (!group_has_read_[g]) {
      charge_read_block(blk);
      decode_group(g);
    }
    charge_write_block(blk);
    const std::span<pram::Word> block_vals{
        decoded_store_.data() + g * config_.b, config_.b};
    for (std::uint32_t j = plan.group_offsets[g];
         j < plan.group_offsets[g + 1]; ++j) {
      const std::uint32_t w = plan.request_write[plan.group_requests[j]];
      if (w == pram::AccessPlan::kNone) {
        continue;
      }
      block_vals[plan.writes[w].var.index() % config_.b] =
          plan.writes[w].value;
      ++vars_accessed_;
    }
    encode_block(blk, block_vals);
  }
  const std::uint32_t write_rounds = phase_max;

  cost.time = read_rounds + write_rounds;
  cost.work = share_accesses_ - share_accesses_before;
  cost.max_queue = std::max(read_rounds, write_rounds);
  return cost;
}

pram::Word IdaMemory::peek(VarId var) const {
  PRAMSIM_ASSERT(var.index() < m_vars_);
  std::uint32_t erased = 0;
  std::uint32_t faulty = 0;
  bool ok = true;
  return recover_block(block_of(var), &erased, &faulty,
                       &ok)[var.index() % config_.b];
}

void IdaMemory::poke(VarId var, pram::Word value) {
  PRAMSIM_ASSERT(var.index() < m_vars_);
  const auto blk = block_of(var);
  auto vals = decode_block(blk);
  vals[var.index() % config_.b] = value;
  encode_block(blk, vals);
}

pram::ScrubResult IdaMemory::scrub(std::uint64_t budget) {
  pram::ScrubResult result;
  if (hooks_ == nullptr || budget == 0) {
    return result;
  }
  std::vector<ModuleId> modules(config_.d);
  for (std::uint64_t n = 0; n < budget && n < n_blocks_; ++n) {
    const std::uint64_t block = scrub_cursor_;
    scrub_cursor_ = (scrub_cursor_ + 1) % n_blocks_;
    ++result.scanned;
    placement_into_current(block, modules);
    std::uint32_t dead_shares = 0;
    for (std::uint32_t j = 0; j < config_.d; ++j) {
      dead_shares += hooks_->module_dead(modules[j], steps_served()) ? 1 : 0;
    }
    if (dead_shares == 0) {
      continue;  // full share set alive: nothing to re-disperse
    }
    auto relocate_dead = [&]() {
      std::uint32_t relocated = 0;
      for (std::uint32_t j = 0; j < config_.d; ++j) {
        if (!hooks_->module_dead(modules[j], steps_served())) {
          continue;
        }
        ModuleId replacement;
        if (pram::pick_healthy_module(*hooks_, steps_served(),
                                      config_.n_modules,
                                      config_.seed, block, j, modules,
                                      replacement)) {
          obs_event(obs::EventKind::kRelocation, block, j,
                    modules[j].index(), replacement.index());
          relocated_[block * config_.d + j] = replacement;
          modules[j] = replacement;
          ++relocated;
        }
      }
      result.relocated += relocated;
      reliability_.units_relocated += relocated;
      return relocated;
    };
    if (!block_written(block)) {
      // Unwritten block: every share at index j still reads the shared
      // zero encoding zero_shares_[j] (whether or not a neighbor write
      // materialized its region row), which relocation preserves — so
      // re-homing the dead shares restores full redundancy without
      // writing any share words.
      const std::uint32_t relocated = relocate_dead();
      if (relocated > 0) {
        ++result.repaired;
        ++reliability_.units_repaired;
        obs_event(obs::EventKind::kScrubRepair, block, relocated);
      }
      continue;
    }
    std::uint32_t erased = 0;
    std::uint32_t faulty = 0;
    bool ok = true;
    // Reconstruct OUTSIDE the read path: recover_block counts nothing
    // into the read telemetry, so scrubbing never inflates masked rates.
    const auto vals = recover_block(block, &erased, &faulty, &ok);
    result.work += config_.b;
    if (!ok) {
      continue;  // below threshold: the block is lost, not repairable
    }
    const std::uint32_t relocated = relocate_dead();
    // Re-disperse the reconstructed block onto the repaired placement
    // (a stuck share that silently joined the interpolation re-disperses
    // its poison — IDA scrubbing repairs erasures, not errors). Shares
    // that sat on dead modules hold stale words, so the rewrite is
    // needed even when every share was re-homed.
    encode_block(block, vals);
    result.work += config_.d;
    ++result.repaired;
    ++reliability_.units_repaired;
    obs_event(obs::EventKind::kScrubRepair, block, relocated);
  }
  return result;
}

void IdaMemory::snapshot_body(pram::SnapshotSink& sink) {
  put_u32(sink, config_.b);
  put_u32(sink, config_.d);
  put_u32(sink, config_.region_blocks);
  put_u32(sink, config_.check_shares ? 1u : 0u);
  put_u64(sink, row_words_);

  std::vector<std::uint64_t> regions;
  regions.reserve(shares_.size());
  // pramlint: ordered-fold (keys collected then sorted before emission)
  for (const auto& [region, row] : shares_) {
    (void)row;
    regions.push_back(region);
  }
  std::sort(regions.begin(), regions.end());
  put_u64(sink, regions.size());
  for (const std::uint64_t region : regions) {
    put_u64(sink, region);
    const auto& row = shares_.at(region);
    sink.write(row.data(), row.size() * sizeof(pram::Word));
  }

  std::vector<std::uint64_t> keys;
  keys.reserve(relocated_.size());
  // pramlint: ordered-fold (keys collected then sorted before emission)
  for (const auto& [key, module] : relocated_) {
    (void)module;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  put_u64(sink, keys.size());
  for (const std::uint64_t key : keys) {
    put_u64(sink, key);
    put_u32(sink, relocated_.at(key).value());
  }

  put_u64(sink, store_ops_);
  put_u64(sink, scrub_cursor_);
}

bool IdaMemory::restore_body(pram::SnapshotSource& source) {
  std::uint32_t b = 0;
  std::uint32_t d = 0;
  std::uint32_t region_blocks = 0;
  std::uint32_t check_shares = 0;
  std::uint64_t row_words = 0;
  if (!get_u32(source, b) || b != config_.b || !get_u32(source, d) ||
      d != config_.d || !get_u32(source, region_blocks) ||
      region_blocks != config_.region_blocks ||
      !get_u32(source, check_shares) ||
      (check_shares != 0) != config_.check_shares ||
      !get_u64(source, row_words) || row_words != row_words_) {
    return false;
  }

  shares_.clear();
  std::uint64_t n_rows = 0;
  if (!get_u64(source, n_rows)) {
    return false;
  }
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    std::uint64_t region = 0;
    if (!get_u64(source, region) || region >= n_regions_) {
      return false;
    }
    std::vector<pram::Word> row(row_words_);
    if (!source.read(row.data(), row_words_ * sizeof(pram::Word))) {
      return false;
    }
    shares_.insert_or_assign(region, std::move(row));
  }

  relocated_.clear();
  std::uint64_t n_relocated = 0;
  if (!get_u64(source, n_relocated)) {
    return false;
  }
  for (std::uint64_t i = 0; i < n_relocated; ++i) {
    std::uint64_t key = 0;
    std::uint32_t module = 0;
    if (!get_u64(source, key) || !get_u32(source, module)) {
      return false;
    }
    relocated_.insert_or_assign(key, ModuleId(module));
  }

  return get_u64(source, store_ops_) && get_u64(source, scrub_cursor_);
}

double IdaMemory::work_amplification() const {
  return vars_accessed_ > 0 ? static_cast<double>(vars_processed_) /
                                  static_cast<double>(vars_accessed_)
                            : 0.0;
}

}  // namespace pramsim::ida
