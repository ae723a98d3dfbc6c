// Scheme factory: one entry point that assembles each of the memory
// organizations studied (or contrasted) in the paper, with all parameters
// derived from (n, k, eps, b, seed):
//
//  | kind        | machine model        | interconnect     | redundancy    |
//  |-------------|----------------------|------------------|---------------|
//  | kHpMot      | DMBDN (Theorem 3)    | sqrt(M) x sqrt(M)| Theta(1)      |
//  |             |                      | 2DMOT, modules   | (Lemma 2)     |
//  |             |                      | at leaves        |               |
//  | kCrossbar   | DMBDN (Fig. 7)       | n x M 2DMOT      | Theta(1)      |
//  | kLppMot     | BDN (LPP'90 baseline)| n x n 2DMOT,     | Theta(log n)  |
//  |             |                      | modules at roots |               |
//  | kDmmpc      | DMMPC (Theorem 2)    | complete K_{n,M} | Theta(1)      |
//  | kUwMpc      | MPC (UW'87 baseline) | complete K_n     | Theta(log m)  |
//  | kAltBdn     | BDN (Alt et al. '87) | sorting network  | Theta(log m)  |
//  | kHbExpander | BDN (HB'88 baseline) | random-regular   | Theta(log m / |
//  |             |                      | expander         |  loglog m)    |
//  | kRanade     | BDN (Ranade '87)     | butterfly        | 1 (hashed,    |
//  |             |                      |                  |  probabilistic)|
//  | kIda        | DMMPC (Schuster '87) | complete K_{n,M} | storage d/b   |
//  |             |                      |                  | = Theta(1)    |
//  | kHashed     | MPC (MV'84 baseline) | complete K_n     | 1 (hashed,    |
//  |             |                      |                  |  probabilistic)|
//
// Every kind yields a pram::MemorySystem — the scheme-agnostic engine
// interface — so any organization plugs into pram::Machine and into the
// core::SimulationPipeline stress driver with zero per-scheme branching.
//
// Geometry notes: the square 2DMOT hosts processors at the first n
// row-tree roots, so its side is max(n, ~n^((1+eps)/2)) rounded to a power
// of two; with the default eps = 1 the side is exactly n and M = n^2. The
// scheme's effective granularity exponent (derived from the actual module
// count) feeds the Lemma 2 threshold so redundancy is always honest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "majority/engine.hpp"
#include "majority/majority_memory.hpp"
#include "memmap/memory_map.hpp"
#include "memmap/params.hpp"
#include "pram/memory_system.hpp"

namespace pramsim::core {

enum class SchemeKind : std::uint8_t {
  kHpMot,       ///< the paper's contribution (Theorem 3)
  kCrossbar,    ///< Fig. 7 variant
  kLppMot,      ///< Luccio et al. 1990 baseline
  kDmmpc,       ///< Theorem 2 machine
  kUwMpc,       ///< Upfal-Wigderson 1987 MPC baseline
  kAltBdn,      ///< Alt et al. 1987 sorting-network BDN baseline (modeled)
  kHbExpander,  ///< Herley-Bilardi 1988 expander baseline
  kRanade,      ///< Ranade 1987 butterfly baseline (probabilistic)
  kIda,         ///< Schuster/Rabin information-dispersal blocks
  kHashed,      ///< Mehlhorn-Vishkin 1984 hashed single copy (probabilistic)
};

[[nodiscard]] const char* to_string(SchemeKind kind);

/// Every kind, in a stable order (for cross-scheme sweeps and tests).
[[nodiscard]] const std::vector<SchemeKind>& all_scheme_kinds();

struct SchemeSpec {
  SchemeKind kind = SchemeKind::kHpMot;
  std::uint32_t n = 64;    ///< processors (power of two >= 4 for MOT kinds)
  double k = 2.0;          ///< m = n^k
  double eps = 1.0;        ///< target M = n^(1+eps) (granularity)
  double b = 4.0;          ///< Lemma 2 expansion parameter
  std::uint64_t seed = 1;  ///< memory-map seed
  /// Ensure the map covers at least this many variables (program
  /// footprints); 0 = just n^k.
  std::uint64_t min_vars = 0;
  // Protocol knobs.
  std::uint32_t stage1_turns = 2;
  bool lca_turnaround = false;
  bool all_at_once = false;  ///< DMMPC ablation (no clustering)
  /// MOT kinds only: precede steps with the P-ROM address-translation
  /// phase (paper conclusion; replaces per-processor map tables).
  bool prom_lookup = false;
  /// kIda only: per-share checksum words verified on decode (detected
  /// bad shares become erasures instead of silent block poison); doubles
  /// the scheme's storage factor. See ida::IdaMemoryConfig::check_shares.
  bool ida_check_shares = false;
  /// Storage region granularity in WORDS, clamped to >= 1. 1 (the
  /// default) is the classic word-at-a-time layout, bit-identical to the
  /// pre-region code. Wider regions store each copy's slice of
  /// region_words consecutive variables contiguously (majority kinds:
  /// CopyStore region rows; kIda: region_words / b blocks per region
  /// row, at least 1) so the value phases run bulk memcmp votes and
  /// GF(256) span recodes. Purely a storage/throughput knob: values,
  /// costs, and fault semantics are identical at every width.
  std::uint32_t region_words = 1;
  /// Hot-set cache in front of the assembled memory, in LINES (one
  /// variable per line). 0 (the default) assembles the bare scheme;
  /// > 0 wraps it in cache::CachedMemory (clock second-chance eviction,
  /// dirty write-back, fault-consistent invalidation — see src/cache/).
  std::uint64_t cache_lines = 0;
};

/// A fully assembled scheme behind the unified engine interface: the
/// memory system plus the bookkeeping every bench table needs, so call
/// sites never branch on the kind.
struct SchemeInstance {
  std::string name;
  SchemeKind kind = SchemeKind::kHpMot;
  /// The scheme as a pluggable shared memory — always set; this is the
  /// handle the SimulationPipeline and pram::Machine drive.
  std::unique_ptr<pram::MemorySystem> memory;
  /// Non-owning view of the majority-protocol engine inside `memory`
  /// (protocol introspection: live-decay curves, P-ROM phases). Null for
  /// organizations without one (kIda, kHashed).
  majority::AccessEngine* engine = nullptr;
  std::shared_ptr<const memmap::MemoryMap> map;  ///< null for kIda/kHashed
  std::uint64_t m = 0;           ///< variables covered
  std::uint32_t n_modules = 0;   ///< M
  std::uint32_t c = 0;           ///< access threshold (0: no majority rule)
  std::uint32_t r = 0;           ///< copies per variable (0: not replicated)
  std::uint32_t region_words = 1;  ///< storage granularity actually in effect
  double storage_factor = 1.0;   ///< storage blow-up vs flat memory
  double eps_effective = 0.0;    ///< log2(M)/log2(n) - 1 actually realized
  std::uint64_t switches = 0;    ///< extra network nodes (0 for MPC/DMMPC)
  std::uint64_t request_hops = 0;  ///< one-way route length (MOT kinds)
  // Table metadata, so comparison benches are pure loops.
  const char* model = "";        ///< "DMMPC", "DMBDN (2DMOT)", ...
  const char* time_unit = "rounds";
  bool deterministic = true;
  const char* guarantee = "";    ///< "deterministic worst-case" / ...
  const char* notes = "";        ///< source / caveat column text
};

[[nodiscard]] SchemeInstance make_scheme(const SchemeSpec& spec);

/// The scheme as a pluggable shared memory for pram::Machine — every
/// SchemeKind, one call, no branches at the call site.
[[nodiscard]] std::unique_ptr<pram::MemorySystem> make_memory(
    const SchemeSpec& spec);

}  // namespace pramsim::core
