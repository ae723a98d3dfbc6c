// Rabin information dispersal (the Schuster 1987 memory scheme's coding
// substrate, as described in the paper's §1):
//
//   a block of b field elements is recoded into d >= b elements such that
//   ANY b of the d recoded elements recover the block exactly.
//
// Encoding evaluates the degree-(b-1) polynomial whose coefficients are
// the block at d distinct nonzero points alpha^0..alpha^(d-1); recovery is
// Lagrange interpolation from any b (point, value) pairs. Storage grows by
// the constant factor d/b while tolerating d-b erasures.
//
// P-RAM words are dispersed lane-wise: each of the 8 bytes of a 64-bit
// word is an independent GF(256) stream, so a "share" is itself a word.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ida/gf256.hpp"
#include "pram/types.hpp"

namespace pramsim::ida {

struct IdaParams {
  std::uint32_t b = 4;  ///< block length (elements needed to recover)
  std::uint32_t d = 8;  ///< shares produced (d - b erasures tolerated)
};

class Disperser {
 public:
  explicit Disperser(IdaParams params);

  [[nodiscard]] std::uint32_t b() const { return params_.b; }
  [[nodiscard]] std::uint32_t d() const { return params_.d; }
  /// Storage expansion factor d/b (the paper's "constant factor").
  [[nodiscard]] double storage_factor() const {
    return static_cast<double>(params_.d) / params_.b;
  }

  // ---- byte-level primitives ----

  /// Encode b bytes into d shares.
  [[nodiscard]] std::vector<GF256::Elem> encode_bytes(
      std::span<const GF256::Elem> block) const;

  /// Recover the b block bytes from any b (share_index, value) pairs.
  /// Indices must be distinct and < d.
  [[nodiscard]] std::vector<GF256::Elem> recover_bytes(
      std::span<const std::uint32_t> indices,
      std::span<const GF256::Elem> values) const;

  // ---- word-level (lane-wise) API used by the memory scheme ----

  /// Encode b words into d share-words (8 independent byte lanes).
  [[nodiscard]] std::vector<pram::Word> encode_words(
      std::span<const pram::Word> block) const;

  /// Recover b words from any b (share_index, share_word) pairs.
  [[nodiscard]] std::vector<pram::Word> recover_words(
      std::span<const std::uint32_t> indices,
      std::span<const pram::Word> shares) const;

  // ---- matrix codec (the memory scheme's hot path) ----
  //
  // The per-word API above re-derives the evaluation geometry on every
  // call (and allocates its results); the matrix codec instead applies a
  // precomputed GF(256) matrix to whole words with the table-sliced
  // multiply of GF256::mul_span_accum (a word's 8 byte lanes are
  // independent GF(256) streams). Bit-identical to encode_words /
  // recover_words: both sides are exact field arithmetic evaluating the
  // same polynomials.

  /// Encode the b words at `block` into the d share words at `shares`.
  void encode_block(const pram::Word* block, pram::Word* shares) const;

  /// Decode one block from b share words: `shares[j]` is the word of
  /// share index indices[j]. Indices must be distinct and < d; the b
  /// decoded words land at `block_out`, which must not alias `shares`.
  void decode_block(std::span<const std::uint32_t> indices,
                    const pram::Word* shares, pram::Word* block_out) const;

  /// Word k of the healthy decode (survivor set {0..b-1}, `shares` its
  /// b share words): one row of the healthy recovery matrix times the
  /// shares, equal to word k of decode_block without decoding the rest.
  [[nodiscard]] pram::Word decode_word(const pram::Word* shares,
                                       std::uint32_t k) const;

 private:
  /// The b x b recovery matrix M for a survivor index set: block word k
  /// is sum_j M[k*b + j] * share_value[j] (the Lagrange interpolation of
  /// recover_bytes with the value-independent factors folded together).
  void recovery_matrix_into(std::span<const std::uint32_t> indices,
                            std::vector<GF256::Elem>& out) const;

  /// healthy_matrix_, built on first use (kept out of construction,
  /// which every memory instance pays).
  [[nodiscard]] const std::vector<GF256::Elem>& healthy_matrix() const;

  /// sum_j row[j] * shares[j] over the b share words (byte lanes).
  [[nodiscard]] pram::Word row_times_shares(const GF256::Elem* row,
                                            const pram::Word* shares) const;

  IdaParams params_;
  /// Generator matrix: share i draws coefficient gen_[i*b + j] from block
  /// word j (polynomial evaluation at alpha^i, written as a dot product).
  std::vector<GF256::Elem> gen_;
  /// Cached recovery matrix for the healthy survivor set {0..b-1} (the
  /// only set the healthy serve path ever uses), built on first use.
  mutable std::vector<GF256::Elem> healthy_matrix_;
  /// Recovery matrix scratch for arbitrary survivor sets; mutable because
  /// the codec is logically const and IdaMemory decodes from const paths
  /// (peek).
  mutable std::vector<GF256::Elem> matrix_scratch_;
};

}  // namespace pramsim::ida
