#include "ida/dispersal.hpp"

#include <numeric>

#include "util/assert.hpp"

namespace pramsim::ida {

Disperser::Disperser(IdaParams params) : params_(params) {
  PRAMSIM_ASSERT(params_.b >= 1);
  PRAMSIM_ASSERT(params_.d >= params_.b);
  // Evaluation points are the d distinct nonzero elements alpha^0..alpha^(d-1);
  // they repeat after 255.
  PRAMSIM_ASSERT_MSG(params_.d <= 255, "GF(256) supports at most 255 shares");
  // Generator matrix for the matrix codec: share i is the polynomial
  // evaluated at alpha^i, i.e. the dot product of the block with row i.
  gen_.resize(static_cast<std::size_t>(params_.d) * params_.b);
  for (std::uint32_t i = 0; i < params_.d; ++i) {
    for (std::uint32_t j = 0; j < params_.b; ++j) {
      gen_[static_cast<std::size_t>(i) * params_.b + j] =
          GF256::alpha_pow(i * j);
    }
  }
}

std::vector<GF256::Elem> Disperser::encode_bytes(
    std::span<const GF256::Elem> block) const {
  PRAMSIM_ASSERT(block.size() == params_.b);
  std::vector<GF256::Elem> shares(params_.d);
  for (std::uint32_t i = 0; i < params_.d; ++i) {
    // Horner evaluation of P(x) = block[0] + block[1] x + ... at alpha^i.
    const GF256::Elem x = GF256::alpha_pow(i);
    GF256::Elem acc = 0;
    for (std::uint32_t j = params_.b; j-- > 0;) {
      acc = GF256::add(GF256::mul(acc, x), block[j]);
    }
    shares[i] = acc;
  }
  return shares;
}

std::vector<GF256::Elem> Disperser::recover_bytes(
    std::span<const std::uint32_t> indices,
    std::span<const GF256::Elem> values) const {
  PRAMSIM_ASSERT(indices.size() == params_.b);
  PRAMSIM_ASSERT(values.size() == params_.b);
  const std::uint32_t b = params_.b;

  // Evaluation points.
  std::vector<GF256::Elem> xs(b);
  for (std::uint32_t j = 0; j < b; ++j) {
    PRAMSIM_ASSERT(indices[j] < params_.d);
    xs[j] = GF256::alpha_pow(indices[j]);
  }
#ifndef NDEBUG
  for (std::uint32_t a = 0; a < b; ++a) {
    for (std::uint32_t c = a + 1; c < b; ++c) {
      PRAMSIM_ASSERT_MSG(xs[a] != xs[c], "share indices must be distinct");
    }
  }
#endif

  // Lagrange interpolation, returning the coefficient vector.
  // master(x) = prod_j (x - xs[j]), computed as coefficients.
  std::vector<GF256::Elem> master(b + 1, 0);
  master[0] = 1;
  for (std::uint32_t j = 0; j < b; ++j) {
    // multiply master by (x + xs[j])  (== x - xs[j] in char 2)
    for (std::uint32_t k = j + 1; k-- > 0;) {
      const GF256::Elem shifted = master[k];          // coefficient of x^k
      master[k + 1] = GF256::add(master[k + 1], 0);   // keep
      master[k + 1] = GF256::add(master[k + 1], shifted);
      master[k] = GF256::mul(master[k], xs[j]);
    }
  }

  std::vector<GF256::Elem> coeffs(b, 0);
  std::vector<GF256::Elem> numer(b, 0);
  for (std::uint32_t j = 0; j < b; ++j) {
    // numer(x) = master(x) / (x - xs[j]) via synthetic division.
    GF256::Elem carry = master[b];
    for (std::uint32_t k = b; k-- > 0;) {
      numer[k] = carry;
      carry = GF256::add(master[k], GF256::mul(carry, xs[j]));
    }
    // denom = prod_{i != j} (xs[j] - xs[i]) = numer(xs[j]).
    GF256::Elem denom = 0;
    for (std::uint32_t k = b; k-- > 0;) {
      denom = GF256::add(GF256::mul(denom, xs[j]), numer[k]);
    }
    const GF256::Elem scale = GF256::div(values[j], denom);
    for (std::uint32_t k = 0; k < b; ++k) {
      coeffs[k] = GF256::add(coeffs[k], GF256::mul(numer[k], scale));
    }
  }
  return coeffs;
}

std::vector<pram::Word> Disperser::encode_words(
    std::span<const pram::Word> block) const {
  PRAMSIM_ASSERT(block.size() == params_.b);
  std::vector<pram::Word> shares(params_.d, 0);
  std::vector<GF256::Elem> lane(params_.b);
  for (std::uint32_t byte = 0; byte < 8; ++byte) {
    for (std::uint32_t j = 0; j < params_.b; ++j) {
      lane[j] = static_cast<GF256::Elem>(
          (static_cast<std::uint64_t>(block[j]) >> (8 * byte)) & 0xFF);
    }
    const auto encoded = encode_bytes(lane);
    for (std::uint32_t i = 0; i < params_.d; ++i) {
      shares[i] |= static_cast<pram::Word>(static_cast<std::uint64_t>(
                       encoded[i])
                   << (8 * byte));
    }
  }
  return shares;
}

void Disperser::recovery_matrix_into(std::span<const std::uint32_t> indices,
                                     std::vector<GF256::Elem>& out) const {
  const std::uint32_t b = params_.b;
  PRAMSIM_ASSERT(indices.size() == b);
  // Same construction as recover_bytes, with the value-independent
  // factors folded into one matrix: entry (k, j) = numer_j[k] / denom_j,
  // so coeffs = M * values reproduces the interpolation exactly (field
  // arithmetic is exact; only the per-value work moved out of the loop).
  std::vector<GF256::Elem> xs(b);
  for (std::uint32_t j = 0; j < b; ++j) {
    PRAMSIM_ASSERT(indices[j] < params_.d);
    xs[j] = GF256::alpha_pow(indices[j]);
  }
  std::vector<GF256::Elem> master(b + 1, 0);
  master[0] = 1;
  for (std::uint32_t j = 0; j < b; ++j) {
    for (std::uint32_t k = j + 1; k-- > 0;) {
      const GF256::Elem shifted = master[k];
      master[k + 1] = GF256::add(master[k + 1], shifted);
      master[k] = GF256::mul(master[k], xs[j]);
    }
  }
  out.assign(static_cast<std::size_t>(b) * b, 0);
  std::vector<GF256::Elem> numer(b, 0);
  for (std::uint32_t j = 0; j < b; ++j) {
    GF256::Elem carry = master[b];
    for (std::uint32_t k = b; k-- > 0;) {
      numer[k] = carry;
      carry = GF256::add(master[k], GF256::mul(carry, xs[j]));
    }
    GF256::Elem denom = 0;
    for (std::uint32_t k = b; k-- > 0;) {
      denom = GF256::add(GF256::mul(denom, xs[j]), numer[k]);
    }
    for (std::uint32_t k = 0; k < b; ++k) {
      out[static_cast<std::size_t>(k) * b + j] = GF256::div(numer[k], denom);
    }
  }
}

void Disperser::encode_block(const pram::Word* block,
                             pram::Word* shares) const {
  const std::uint32_t b = params_.b;
  const auto* in_bytes = reinterpret_cast<const std::uint8_t*>(block);
  for (std::uint32_t i = 0; i < params_.d; ++i) {
    shares[i] = 0;
    auto* out_bytes = reinterpret_cast<std::uint8_t*>(shares + i);
    for (std::uint32_t j = 0; j < b; ++j) {
      GF256::mul_span_accum(out_bytes, in_bytes + j * sizeof(pram::Word),
                            sizeof(pram::Word),
                            gen_[static_cast<std::size_t>(i) * b + j]);
    }
  }
}

pram::Word Disperser::row_times_shares(const GF256::Elem* row,
                                       const pram::Word* shares) const {
  pram::Word out = 0;
  auto* out_bytes = reinterpret_cast<std::uint8_t*>(&out);
  const auto* in_bytes = reinterpret_cast<const std::uint8_t*>(shares);
  for (std::uint32_t j = 0; j < params_.b; ++j) {
    GF256::mul_span_accum(out_bytes, in_bytes + j * sizeof(pram::Word),
                          sizeof(pram::Word), row[j]);
  }
  return out;
}

void Disperser::decode_block(std::span<const std::uint32_t> indices,
                             const pram::Word* shares,
                             pram::Word* block_out) const {
  const std::uint32_t b = params_.b;
  PRAMSIM_ASSERT(indices.size() == b);
  bool healthy = true;
  for (std::uint32_t j = 0; j < b && healthy; ++j) {
    healthy = indices[j] == j;
  }
  const std::vector<GF256::Elem>* matrix = nullptr;
  if (healthy) {
    matrix = &healthy_matrix();
  } else {
    recovery_matrix_into(indices, matrix_scratch_);
    matrix = &matrix_scratch_;
  }
  for (std::uint32_t k = 0; k < b; ++k) {
    block_out[k] = row_times_shares(
        matrix->data() + static_cast<std::size_t>(k) * b, shares);
  }
}

pram::Word Disperser::decode_word(const pram::Word* shares,
                                  std::uint32_t k) const {
  PRAMSIM_ASSERT(k < params_.b);
  return row_times_shares(
      healthy_matrix().data() + static_cast<std::size_t>(k) * params_.b,
      shares);
}

const std::vector<GF256::Elem>& Disperser::healthy_matrix() const {
  if (healthy_matrix_.empty()) {
    std::vector<std::uint32_t> identity(params_.b);
    std::iota(identity.begin(), identity.end(), 0U);
    recovery_matrix_into(identity, healthy_matrix_);
  }
  return healthy_matrix_;
}

std::vector<pram::Word> Disperser::recover_words(
    std::span<const std::uint32_t> indices,
    std::span<const pram::Word> shares) const {
  PRAMSIM_ASSERT(indices.size() == params_.b && shares.size() == params_.b);
  std::vector<pram::Word> block(params_.b, 0);
  std::vector<GF256::Elem> lane(params_.b);
  for (std::uint32_t byte = 0; byte < 8; ++byte) {
    for (std::uint32_t j = 0; j < params_.b; ++j) {
      lane[j] = static_cast<GF256::Elem>(
          (static_cast<std::uint64_t>(shares[j]) >> (8 * byte)) & 0xFF);
    }
    const auto decoded = recover_bytes(indices, lane);
    for (std::uint32_t j = 0; j < params_.b; ++j) {
      block[j] |= static_cast<pram::Word>(static_cast<std::uint64_t>(
                      decoded[j])
                  << (8 * byte));
    }
  }
  return block;
}

}  // namespace pramsim::ida
