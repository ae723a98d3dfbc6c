#include "core/schemes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cache/cached_memory.hpp"
#include "core/context_engines.hpp"
#include "core/mot_engine.hpp"
#include "hashing/mv_memory.hpp"
#include "ida/ida_memory.hpp"
#include "network/expander.hpp"
#include "network/topology.hpp"
#include "sortnet/batcher.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pramsim::core {

const char* to_string(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kHpMot: return "HP-2DMOT";
    case SchemeKind::kCrossbar: return "HP-crossbar";
    case SchemeKind::kLppMot: return "LPP-2DMOT";
    case SchemeKind::kDmmpc: return "HP-DMMPC";
    case SchemeKind::kUwMpc: return "UW-MPC";
    case SchemeKind::kAltBdn: return "Alt-BDN(sort)";
    case SchemeKind::kHbExpander: return "HB-expander";
    case SchemeKind::kRanade: return "Ranade-butterfly";
    case SchemeKind::kIda: return "Schuster-IDA";
    case SchemeKind::kHashed: return "MV-hashing";
  }
  return "???";
}

const std::vector<SchemeKind>& all_scheme_kinds() {
  static const std::vector<SchemeKind> kinds = {
      SchemeKind::kUwMpc,  SchemeKind::kAltBdn,     SchemeKind::kDmmpc,
      SchemeKind::kLppMot, SchemeKind::kCrossbar,   SchemeKind::kHpMot,
      SchemeKind::kHbExpander, SchemeKind::kRanade, SchemeKind::kIda,
      SchemeKind::kHashed,
  };
  return kinds;
}

namespace {

std::uint64_t vars_for(const SchemeSpec& spec) {
  const auto m = static_cast<std::uint64_t>(
      std::llround(std::pow(static_cast<double>(spec.n), spec.k)));
  return std::max<std::uint64_t>({m, spec.min_vars, spec.n});
}

double effective_eps(std::uint32_t n, std::uint64_t n_modules) {
  return std::log2(static_cast<double>(n_modules)) /
             std::log2(static_cast<double>(n)) -
         1.0;
}

/// Wrap a majority access engine into the unified memory interface and
/// keep the protocol-introspection view alive.
void install_engine(SchemeInstance& inst,
                    std::unique_ptr<majority::AccessEngine> engine) {
  auto memory = std::make_unique<majority::MajorityMemory>(std::move(engine));
  inst.engine = &memory->engine();
  inst.memory = std::move(memory);
}

/// The replicated kinds' map: access threshold c, r = 2c - 1 copies per
/// variable, placed by a seeded HashedMap over the instance's modules.
void install_replicated_map(SchemeInstance& inst, std::uint32_t c,
                            std::uint64_t seed) {
  inst.c = c;
  inst.r = 2 * c - 1;
  PRAMSIM_ASSERT_MSG(inst.r <= inst.n_modules,
                     "a replicated map needs r = 2c - 1 <= M modules");
  inst.map = std::make_shared<memmap::HashedMap>(inst.m, inst.n_modules,
                                                 inst.r, seed);
}

/// The majority protocol's scheduler knobs, shared by every MPC/BDN kind.
majority::SchedulerConfig scheduler_config(const SchemeInstance& inst,
                                           const SchemeSpec& spec) {
  majority::SchedulerConfig cfg;
  cfg.c = inst.c;
  cfg.cluster_size = inst.r;
  cfg.n_processors = spec.n;
  cfg.stage1_turns = spec.stage1_turns;
  cfg.all_at_once = spec.all_at_once;
  return cfg;
}

/// The 2DMOT kinds: a MotEngine of `scheme`'s geometry over the
/// instance's map, installed with its network bookkeeping.
void install_mot_engine(SchemeInstance& inst, const SchemeSpec& spec,
                        MotScheme scheme) {
  MotEngineConfig cfg;
  cfg.scheme = scheme;
  cfg.n_processors = spec.n;
  cfg.c = inst.c;
  cfg.cluster_size = inst.r;
  cfg.stage1_turns = spec.stage1_turns;
  cfg.lca_turnaround = spec.lca_turnaround;  // kHpLeaves paths only
  cfg.prom_lookup = spec.prom_lookup;
  auto engine = std::make_unique<MotEngine>(inst.map, cfg);
  inst.switches = net::summarize(engine->shape()).switches;
  inst.request_hops = engine->request_hops();
  install_engine(inst, std::move(engine));
  inst.model = "DMBDN (2DMOT)";
  inst.time_unit = "cycles";
}

}  // namespace

SchemeInstance make_scheme(const SchemeSpec& spec) {
  PRAMSIM_ASSERT(spec.n >= 4);
  SchemeInstance inst;
  inst.kind = spec.kind;
  inst.name = to_string(spec.kind);
  inst.m = vars_for(spec);
  inst.guarantee = "deterministic worst-case";

  const double nd = spec.n;
  switch (spec.kind) {
    case SchemeKind::kHpMot: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      // Square side: at least n (processors at the first n row roots),
      // at least ~n^((1+eps)/2), power of two.
      const auto target_side = static_cast<std::uint64_t>(
          std::llround(std::pow(nd, (1.0 + spec.eps) / 2.0)));
      const std::uint64_t side = std::max<std::uint64_t>(
          spec.n, util::next_pow2(std::max<std::uint64_t>(target_side, 4)));
      const std::uint64_t M = side * side;
      PRAMSIM_ASSERT_MSG(M <= inst.m,
                         "module count exceeds variables; raise k or min_vars");
      inst.n_modules = static_cast<std::uint32_t>(M);
      inst.eps_effective = effective_eps(spec.n, inst.n_modules);
      install_replicated_map(
          inst,
          memmap::lemma2_min_c(spec.b, spec.k,
                               std::max(inst.eps_effective, 0.25)),
          spec.seed);
      install_mot_engine(inst, spec, MotScheme::kHpLeaves);
      inst.notes = "Theorem 3";
      break;
    }
    case SchemeKind::kCrossbar: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      const auto target = static_cast<std::uint64_t>(
          std::llround(std::pow(nd, 1.0 + spec.eps)));
      const std::uint64_t M = std::min<std::uint64_t>(
          util::next_pow2(std::max<std::uint64_t>(target, 4)), inst.m);
      PRAMSIM_ASSERT(util::is_pow2(M));
      inst.n_modules = static_cast<std::uint32_t>(M);
      inst.eps_effective = effective_eps(spec.n, inst.n_modules);
      install_replicated_map(
          inst,
          memmap::lemma2_min_c(spec.b, spec.k,
                               std::max(inst.eps_effective, 0.25)),
          spec.seed);
      install_mot_engine(inst, spec, MotScheme::kCrossbar);
      inst.notes = "Fig. 7";
      break;
    }
    case SchemeKind::kLppMot: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n) && spec.n >= 4);
      inst.n_modules = spec.n;  // one module per root processor
      inst.eps_effective = 0.0;
      install_replicated_map(inst, memmap::uw_c(inst.m, spec.b), spec.seed);
      install_mot_engine(inst, spec, MotScheme::kLppRoots);
      inst.notes = "LPP'90";
      break;
    }
    case SchemeKind::kDmmpc: {
      const auto M64 = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(
              std::llround(std::pow(nd, 1.0 + spec.eps))),
          inst.m);
      inst.n_modules = static_cast<std::uint32_t>(M64);
      inst.eps_effective = effective_eps(spec.n, inst.n_modules);
      install_replicated_map(
          inst, memmap::lemma2_min_c(spec.b, spec.k, spec.eps), spec.seed);
      install_engine(inst, std::make_unique<majority::DmmpcEngine>(
                               inst.map, scheduler_config(inst, spec)));
      inst.model = "DMMPC";
      inst.notes = "Theorem 2";
      break;
    }
    case SchemeKind::kUwMpc: {
      inst.n_modules = spec.n;  // the MPC: one module per processor
      inst.eps_effective = 0.0;
      install_replicated_map(inst, memmap::uw_c(inst.m, spec.b), spec.seed);
      install_engine(inst, std::make_unique<majority::DmmpcEngine>(
                               inst.map, scheduler_config(inst, spec)));
      inst.model = "MPC";
      inst.notes = "UW'87";
      break;
    }
    case SchemeKind::kAltBdn: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      inst.n_modules = spec.n;  // BDN: one module per node
      inst.eps_effective = 0.0;
      install_replicated_map(inst, memmap::uw_c(inst.m, spec.b), spec.seed);
      // Alt, Hagerup, Mehlhorn & Preparata (1987) realize each protocol
      // round by sorting its copy requests by destination module on a
      // Batcher network, delivering along the sorted order and returning
      // replies the same way: a round costs the concrete network's exact
      // depth plus 2 log n delivery hops. The comparator network is real
      // (src/sortnet); only its per-comparator data movement is folded
      // into the depth charge, the quantity their analysis counts.
      inst.request_hops =
          sortnet::batcher_sort(spec.n).depth() +
          2 * static_cast<std::uint64_t>(util::ilog2_ceil(spec.n));
      install_engine(inst, std::make_unique<majority::DmmpcEngine>(
                               inst.map, scheduler_config(inst, spec),
                               inst.request_hops));
      inst.model = "BDN (sorting)";
      inst.time_unit = "cycles";
      inst.notes = "Alt et al. '87";
      break;
    }
    case SchemeKind::kHbExpander: {
      inst.n_modules = spec.n;  // modules at the expander's nodes
      inst.eps_effective = 0.0;
      install_replicated_map(inst, hb_c(inst.m), spec.seed);
      // Each protocol round crosses the measured diameter of a concrete
      // 6-regular random expander on the n nodes.
      const net::RegularGraph graph(spec.n, /*degree=*/6, spec.seed + 101);
      PRAMSIM_ASSERT_MSG(graph.connected(), "expander must be connected");
      inst.request_hops = graph.diameter();
      install_engine(inst, std::make_unique<majority::DmmpcEngine>(
                               inst.map, scheduler_config(inst, spec),
                               inst.request_hops));
      inst.model = "BDN (expander)";
      inst.time_unit = "cycles";
      inst.notes = "HB'88; measured 6-regular expander";
      break;
    }
    case SchemeKind::kRanade: {
      PRAMSIM_ASSERT(util::is_pow2(spec.n));
      inst.n_modules = spec.n;  // one module per butterfly output row
      inst.eps_effective = 0.0;
      inst.c = 1;
      inst.r = 1;
      inst.map =
          memmap::make_single_copy_map(inst.m, inst.n_modules, spec.seed);
      install_engine(inst,
                     std::make_unique<RanadeButterflyEngine>(inst.map, spec.n));
      inst.model = "BDN (butterfly)";
      inst.time_unit = "cycles";
      inst.deterministic = false;
      inst.guarantee = "expected only";
      inst.notes = "Ranade'87; no worst-case bound";
      break;
    }
    case SchemeKind::kIda: {
      // Block size b = Theta(log n), d = 2b shares: constant (x2) storage
      // redundancy, Theta(log n) variables processed per access — the
      // opposite trade from the paper's replication.
      const auto block = std::max<std::uint32_t>(
          2, static_cast<std::uint32_t>(util::ilog2_ceil(spec.n)));
      const std::uint32_t d = 2 * block;
      const auto M64 = std::max<std::uint64_t>(
          d, std::min<std::uint64_t>(
                 {static_cast<std::uint64_t>(
                      std::llround(std::pow(nd, 1.0 + spec.eps))),
                  inst.m,
                  std::numeric_limits<std::uint32_t>::max()}));
      inst.n_modules = static_cast<std::uint32_t>(M64);
      inst.eps_effective = effective_eps(spec.n, inst.n_modules);
      inst.memory = std::make_unique<ida::IdaMemory>(
          inst.m, ida::IdaMemoryConfig{.b = block,
                                       .d = d,
                                       .n_modules = inst.n_modules,
                                       .seed = spec.seed,
                                       .check_shares =
                                           spec.ida_check_shares});
      if (spec.ida_check_shares) {
        inst.name += "+ck";  // share checksums: detection bought with 2x
      }
      inst.model = "DMMPC";
      inst.guarantee = "deterministic; Theta(log n) work/access";
      inst.notes = "Schuster'87/Rabin'89";
      break;
    }
    case SchemeKind::kHashed: {
      inst.n_modules = spec.n;  // the MPC: one module per processor
      inst.eps_effective = 0.0;
      inst.memory = std::make_unique<hashing::MvMemory>(
          inst.m, hashing::MvMemoryConfig{.n_modules = inst.n_modules,
                                          .k_wise = 2,
                                          .seed = spec.seed});
      inst.model = "MPC";
      inst.deterministic = false;
      inst.guarantee = "expected only";
      inst.notes = "MV'84; adversary can force n rounds";
      break;
    }
  }
  inst.storage_factor = inst.memory->storage_redundancy();
  if (spec.cache_lines > 0) {
    // The cache wraps the assembled scheme; engine/map introspection
    // handles stay valid because the wrapper owns the scheme. Fault
    // wrappers (faults::FaultableMemory) go OUTSIDE the cache, so the
    // oracle scores cache-served values too.
    inst.memory = std::make_unique<cache::CachedMemory>(
        std::move(inst.memory),
        cache::CacheConfig{.capacity = spec.cache_lines});
    inst.name += "+cache";
  }
  return inst;
}

std::unique_ptr<pram::MemorySystem> make_memory(const SchemeSpec& spec) {
  return std::move(make_scheme(spec).memory);
}

}  // namespace pramsim::core
