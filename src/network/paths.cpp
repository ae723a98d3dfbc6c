#include "network/paths.hpp"

#include "util/math.hpp"

namespace pramsim::net {

namespace {

/// Append the edges from the root of (kind, tree) down to leaf `leaf`.
void descend_onto(Path& path, TreeKind kind, std::uint32_t tree,
                  std::uint32_t leaf, std::uint32_t n_leaves) {
  PRAMSIM_ASSERT(util::is_pow2(n_leaves));
  PRAMSIM_ASSERT(leaf < n_leaves);
  const int depth = util::ilog2_floor(n_leaves);
  std::uint32_t pos = 1;
  for (int d = depth - 1; d >= 0; --d) {
    pos = 2 * pos + ((leaf >> d) & 1U);
    path.push_back(tree_edge(kind, tree, pos, Direction::kDown));
  }
}

/// Append the edges from leaf `leaf` of (kind, tree) up to the root.
void ascend_onto(Path& path, TreeKind kind, std::uint32_t tree,
                 std::uint32_t leaf, std::uint32_t n_leaves) {
  PRAMSIM_ASSERT(util::is_pow2(n_leaves));
  PRAMSIM_ASSERT(leaf < n_leaves);
  for (std::uint32_t pos = n_leaves + leaf; pos > 1; pos /= 2) {
    path.push_back(tree_edge(kind, tree, pos, Direction::kUp));
  }
}

/// The same channel in the opposite direction (module ports are
/// direction-less).
EdgeKey flipped(EdgeKey key) {
  const std::uint64_t kind_bits = key.raw >> 62;
  if (kind_bits != 3) {
    key.raw ^= (1ULL << 61);  // flip direction bit
  }
  return key;
}

}  // namespace

Path descend(TreeKind kind, std::uint32_t tree, std::uint32_t leaf,
             std::uint32_t n_leaves) {
  Path path;
  descend_onto(path, kind, tree, leaf, n_leaves);
  return path;
}

Path ascend(TreeKind kind, std::uint32_t tree, std::uint32_t leaf,
            std::uint32_t n_leaves) {
  Path path;
  ascend_onto(path, kind, tree, leaf, n_leaves);
  return path;
}

void append(Path& path, const Path& suffix) {
  path.insert(path.end(), suffix.begin(), suffix.end());
}

Path reversed(const Path& path) {
  Path out;
  out.reserve(path.size());
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    out.push_back(flipped(*it));
  }
  return out;
}

void append_reply(Path& path) {
  PRAMSIM_ASSERT(!path.empty());
  const std::size_t request = path.size();
  path.reserve(2 * request - 1);
  for (std::size_t i = request - 1; i-- > 0;) {
    path.push_back(flipped(path[i]));
  }
}

void hp_request_path_into(Path& out, std::uint32_t side,
                          std::uint32_t proc_row, std::uint32_t mod_row,
                          std::uint32_t mod_col, bool lca_turnaround) {
  PRAMSIM_ASSERT(util::is_pow2(side));
  PRAMSIM_ASSERT(proc_row < side && mod_row < side && mod_col < side);
  out.clear();
  // Segment 1: down the processor's row tree to leaf (proc_row, mod_col).
  descend_onto(out, TreeKind::kRow, proc_row, mod_col, side);
  // Segment 2+3: within CT(mod_col), from leaf row proc_row to leaf row
  // mod_row, either via the root (paper) or via the LCA (ablation).
  if (!lca_turnaround) {
    ascend_onto(out, TreeKind::kCol, mod_col, proc_row, side);
    descend_onto(out, TreeKind::kCol, mod_col, mod_row, side);
  } else if (proc_row != mod_row) {
    // The LCA of the two leaves: drop low bits until the positions meet.
    std::uint32_t lca = side + proc_row;
    for (std::uint32_t b = side + mod_row; lca != b;) {
      if (lca > b) {
        lca /= 2;
      } else {
        b /= 2;
      }
    }
    // Ascend from leaf proc_row to the LCA.
    for (std::uint32_t pos = side + proc_row; pos != lca; pos /= 2) {
      out.push_back(tree_edge(TreeKind::kCol, mod_col, pos, Direction::kUp));
    }
    // Descend from the LCA to leaf mod_row: replay the low bits.
    const int total_depth = util::ilog2_floor(side);
    const int lca_depth = util::ilog2_floor(lca);
    std::uint32_t pos = lca;
    for (int d = total_depth - lca_depth - 1; d >= 0; --d) {
      pos = 2 * pos + ((mod_row >> d) & 1U);
      out.push_back(tree_edge(TreeKind::kCol, mod_col, pos, Direction::kDown));
    }
  }
  // Final hop: the module's unit-bandwidth service port.
  out.push_back(module_port(mod_row * side + mod_col));
}

Path hp_request_path(std::uint32_t side, std::uint32_t proc_row,
                     std::uint32_t mod_row, std::uint32_t mod_col,
                     bool lca_turnaround) {
  Path path;
  hp_request_path_into(path, side, proc_row, mod_row, mod_col, lca_turnaround);
  return path;
}

void root_module_request_path_into(Path& out, const MotShape& shape,
                                   std::uint32_t proc_row,
                                   std::uint32_t mod_col) {
  PRAMSIM_ASSERT(proc_row < shape.rows && mod_col < shape.cols);
  out.clear();
  descend_onto(out, TreeKind::kRow, proc_row, mod_col, shape.cols);
  ascend_onto(out, TreeKind::kCol, mod_col, proc_row, shape.rows);
  out.push_back(module_port(mod_col));
}

Path root_module_request_path(const MotShape& shape, std::uint32_t proc_row,
                              std::uint32_t mod_col) {
  Path path;
  root_module_request_path_into(path, shape, proc_row, mod_col);
  return path;
}

}  // namespace pramsim::net
