#include "core/rectifier.hpp"

#include <cstring>
#include <numeric>

#include <algorithm>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace gv {

std::string rectifier_kind_name(RectifierKind kind) {
  switch (kind) {
    case RectifierKind::kParallel: return "parallel";
    case RectifierKind::kCascaded: return "cascaded";
    case RectifierKind::kSeries: return "series";
  }
  throw Error("unknown rectifier kind");
}

namespace {
/// Columns [begin, end) of m as a copy.
Matrix slice_cols(const Matrix& m, std::size_t begin, std::size_t end) {
  GV_CHECK(begin <= end && end <= m.cols(), "column slice out of range");
  Matrix out(m.rows(), end - begin);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    std::memcpy(out.data() + r * out.cols(), m.data() + r * m.cols() + begin,
                (end - begin) * sizeof(float));
  }
  return out;
}
}  // namespace

std::vector<std::uint32_t> Rectifier::frontier_columns(
    std::span<const std::uint32_t> rows) {
  const CsrMatrix& adj = *adj_;
  if (frontier_mark_.size() < adj.cols()) frontier_mark_.assign(adj.cols(), 0);
  if (++frontier_epoch_ == 0) {  // epoch wrapped: stale stamps could collide
    std::fill(frontier_mark_.begin(), frontier_mark_.end(), 0u);
    frontier_epoch_ = 1;
  }
  const std::uint32_t epoch = frontier_epoch_;
  std::vector<std::uint32_t> out;
  out.reserve(rows.size() * 4);
  const auto& row_ptr = adj.row_ptr();
  const auto& col_idx = adj.col_idx();
  for (const std::uint32_t r : rows) {
    GV_CHECK(r < adj.rows(), "frontier row out of range");
    for (std::int64_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const std::uint32_t c = col_idx[i];
      if (frontier_mark_[c] != epoch) {
        frontier_mark_[c] = epoch;
        out.push_back(c);
      }
    }
  }
  if (out.size() * 16 < adj.cols()) {
    std::sort(out.begin(), out.end());
    return out;
  }
  // A dense frontier (a refresh reads every column) is collected faster by
  // one pass over the marks, already in column order, than by sorting.
  out.clear();
  for (std::uint32_t c = 0; c < adj.cols(); ++c) {
    if (frontier_mark_[c] == epoch) out.push_back(c);
  }
  return out;
}

CsrMatrix Rectifier::frontier_slice(std::span<const std::uint32_t> rows,
                                    const std::vector<std::uint32_t>& cols) {
  const CsrMatrix& adj = *adj_;
  if (local_index_.size() < adj.cols()) local_index_.resize(adj.cols());
  for (std::uint32_t j = 0; j < cols.size(); ++j) local_index_[cols[j]] = j;
  std::vector<CooEntry> entries;
  const auto& row_ptr = adj.row_ptr();
  const auto& col_idx = adj.col_idx();
  const auto& values = adj.values();
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    for (std::int64_t k = row_ptr[rows[i]]; k < row_ptr[rows[i] + 1]; ++k) {
      entries.push_back({i, local_index_[col_idx[k]], values[k]});
    }
  }
  return CsrMatrix::from_coo(rows.size(), cols.size(), std::move(entries));
}

Rectifier::Rectifier(RectifierConfig cfg, std::vector<std::size_t> backbone_dims,
                     std::shared_ptr<const CsrMatrix> adjacency, Rng& rng)
    : cfg_(std::move(cfg)),
      backbone_dims_(std::move(backbone_dims)),
      adj_(std::move(adjacency)),
      dropout_rng_(rng.split()) {
  GV_CHECK(!cfg_.channels.empty(), "rectifier needs at least one layer");
  GV_CHECK(!backbone_dims_.empty(), "backbone must have at least one layer");
  GV_CHECK(adj_ != nullptr, "rectifier requires the real adjacency");
  const std::size_t B = backbone_dims_.size();
  const std::size_t R = cfg_.channels.size();
  inputs_.resize(R);
  for (std::size_t k = 1; k < R; ++k) inputs_[k].prev = true;
  switch (cfg_.kind) {
    case RectifierKind::kParallel:
      // Rectify right after each message passing: layer k reads backbone
      // layer k's embedding.
      GV_CHECK(R <= B, "parallel rectifier cannot be deeper than the backbone");
      for (std::size_t k = 0; k < R; ++k) inputs_[k].backbone = {k};
      break;
    case RectifierKind::kCascaded:
      // Global view: the first layer reads every backbone layer's output.
      inputs_[0].backbone.resize(B);
      std::iota(inputs_[0].backbone.begin(), inputs_[0].backbone.end(),
                std::size_t{0});
      break;
    case RectifierKind::kSeries:
      // Only the penultimate embedding (before the classification head).
      inputs_[0].backbone = {B >= 2 ? B - 2 : 0};
      break;
  }
  layers_.reserve(R);
  for (std::size_t k = 0; k < R; ++k) {
    layers_.emplace_back(layer_input_dim(k), cfg_.channels[k], rng);
  }
}

const Rectifier::LayerInputs& Rectifier::inputs(std::size_t k) const {
  GV_CHECK(k < inputs_.size(), "layer index out of range");
  return inputs_[k];
}

std::size_t Rectifier::layer_input_dim(std::size_t k) const {
  const LayerInputs& in = inputs(k);
  std::size_t dim = in.prev ? cfg_.channels[k - 1] : 0;
  for (const std::size_t i : in.backbone) dim += backbone_dims_[i];
  return dim;
}

std::vector<std::size_t> Rectifier::required_backbone_layers() const {
  std::vector<std::size_t> req;
  for (const auto& in : inputs_) {
    req.insert(req.end(), in.backbone.begin(), in.backbone.end());
  }
  std::sort(req.begin(), req.end());
  req.erase(std::unique(req.begin(), req.end()), req.end());
  return req;
}

Matrix Rectifier::layer_input(
    std::size_t k, const std::function<const Matrix&(std::size_t)>& backbone_rows_of,
    Matrix prev) const {
  const LayerInputs& in = inputs(k);
  std::vector<const Matrix*> blocks;
  blocks.reserve(in.backbone.size() + 1);
  for (const std::size_t i : in.backbone) {
    const Matrix& rows = backbone_rows_of(i);
    GV_CHECK(!rows.empty(), "required backbone output is empty");
    GV_CHECK(rows.cols() == backbone_dims_[i], "backbone output dim mismatch");
    blocks.push_back(&rows);
  }
  if (in.prev) {
    if (blocks.empty()) return prev;
    blocks.push_back(&prev);
  }
  if (blocks.size() == 1) return *blocks[0];
  return Matrix::hconcat(std::span<const Matrix* const>(blocks.data(), blocks.size()));
}

std::size_t Rectifier::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.parameter_count();
  return n;
}

Matrix Rectifier::forward(const std::vector<Matrix>& backbone_outputs, bool training) {
  pre_activations_.clear();
  post_activations_.clear();
  masks_.clear();
  trained_forward_ = training;
  cached_backbone_outputs_ = &backbone_outputs;

  auto bb = [&](std::size_t i) -> const Matrix& {
    GV_CHECK(i < backbone_outputs.size(), "missing backbone output");
    return backbone_outputs[i];
  };
  Matrix h;
  for (std::size_t k = 0; k < layers_.size(); ++k) {
    const bool last = (k + 1 == layers_.size());
    const Matrix input = layer_input(k, bb, std::move(h));
    Matrix z = layers_[k].forward(*adj_, input, training);
    if (training) pre_activations_.push_back(z);
    if (!last) {
      h = relu(z);
      if (training && cfg_.dropout > 0.0f) {
        masks_.push_back(dropout_forward(h, cfg_.dropout, dropout_rng_));
      }
    } else {
      h = z;
    }
    post_activations_.push_back(h);
  }
  return post_activations_.back();
}

Matrix Rectifier::forward_subset(const std::vector<Matrix>& backbone_outputs,
                                 std::span<const std::uint32_t> nodes,
                                 std::vector<std::size_t>* layer_rows) {
  const std::size_t n = adj_->rows();
  if (layer_rows) layer_rows->clear();
  if (nodes.empty()) return Matrix();
  for (const auto v : nodes) GV_CHECK(v < n, "query node out of range");

  // Frontier sets, last layer first: layer k reads exactly the columns its
  // output rows touch, and those are the output rows of layer k-1 (an
  // L-layer GCN reads the L-hop neighbourhood of the query set).
  const std::size_t L = layers_.size();
  std::vector<std::vector<std::uint32_t>> rows(L), cols(L);
  rows[L - 1].assign(nodes.begin(), nodes.end());
  std::sort(rows[L - 1].begin(), rows[L - 1].end());
  rows[L - 1].erase(std::unique(rows[L - 1].begin(), rows[L - 1].end()),
                    rows[L - 1].end());
  for (std::size_t k = L; k-- > 0;) {
    cols[k] = frontier_columns(rows[k]);
    if (k > 0) rows[k - 1] = cols[k];
  }

  Matrix h;
  std::vector<Matrix> staged(backbone_dims_.size());
  for (std::size_t k = 0; k < L; ++k) {
    const bool last = (k + 1 == L);
    for (const std::size_t i : inputs(k).backbone) {
      GV_CHECK(i < backbone_outputs.size(), "missing backbone output");
      GV_CHECK(backbone_outputs[i].rows() == n,
               "backbone output covers a different node count");
      staged[i] = backbone_outputs[i].gather_rows(cols[k]);
    }
    const Matrix input = layer_input(
        k, [&](std::size_t i) -> const Matrix& { return staged[i]; }, std::move(h));
    Matrix z = layers_[k].forward_subgraph(frontier_slice(rows[k], cols[k]), input);
    h = last ? std::move(z) : relu(z);
    if (layer_rows) layer_rows->push_back(rows[k].size());
  }

  // h rows follow the sorted unique query set; map back to query order.
  const auto& sorted = rows[L - 1];
  std::vector<std::uint32_t> positions;
  positions.reserve(nodes.size());
  for (const auto v : nodes) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
    positions.push_back(static_cast<std::uint32_t>(it - sorted.begin()));
  }
  return h.gather_rows(positions);
}

void Rectifier::backward(const Matrix& dlogits) {
  GV_CHECK(trained_forward_, "backward() requires a training-mode forward");
  Matrix d = dlogits;
  for (std::size_t k = layers_.size(); k-- > 0;) {
    const bool last = (k + 1 == layers_.size());
    if (!last) {
      if (cfg_.dropout > 0.0f) dropout_backward(d, masks_[k]);
      d = relu_backward(d, pre_activations_[k]);
    }
    Matrix dinput = layers_[k].backward(*adj_, d);
    if (k == 0) break;  // gradient w.r.t. backbone embeddings is discarded
    // The input was [backbone blocks | prev]; keep only the prev part.
    GV_CHECK(inputs_[k].prev, "rectifier layer without a previous-layer input");
    const std::size_t prev_begin = layer_input_dim(k) - cfg_.channels[k - 1];
    d = prev_begin == 0 ? std::move(dinput)
                        : slice_cols(dinput, prev_begin, dinput.cols());
  }
}

void Rectifier::collect_parameters(ParamRefs& refs) {
  for (auto& l : layers_) l.collect_parameters(refs);
}

std::vector<std::size_t> Rectifier::activation_bytes(std::size_t n) const {
  std::vector<std::size_t> bytes;
  bytes.reserve(layers_.size());
  for (const auto ch : cfg_.channels) bytes.push_back(n * ch * sizeof(float));
  return bytes;
}

std::size_t Rectifier::parameter_bytes() const { return parameter_count() * sizeof(float); }

std::vector<std::uint8_t> Rectifier::serialize_weights() const {
  // Layout: [num_layers u32] then per layer [in u32][out u32][W floats][b floats].
  std::vector<std::uint8_t> out;
  auto put_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto put_floats = [&](const float* p, std::size_t count) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
    out.insert(out.end(), bytes, bytes + count * sizeof(float));
  };
  put_u32(static_cast<std::uint32_t>(layers_.size()));
  for (const auto& l : layers_) {
    put_u32(static_cast<std::uint32_t>(l.in_dim()));
    put_u32(static_cast<std::uint32_t>(l.out_dim()));
    put_floats(l.weight().value.data(), l.weight().value.size());
    put_floats(l.bias().value.data(), l.bias().value.size());
  }
  return out;
}

void Rectifier::deserialize_weights(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  auto get_u32 = [&]() -> std::uint32_t {
    GV_CHECK(off + 4 <= bytes.size(), "truncated rectifier weight blob");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(bytes[off + i]) << (8 * i);
    off += 4;
    return v;
  };
  auto get_floats = [&](float* p, std::size_t count) {
    GV_CHECK(off + count * sizeof(float) <= bytes.size(),
             "truncated rectifier weight blob");
    std::memcpy(p, bytes.data() + off, count * sizeof(float));
    off += count * sizeof(float);
  };
  const std::uint32_t n_layers = get_u32();
  GV_CHECK(n_layers == layers_.size(), "rectifier layer count mismatch");
  for (auto& l : layers_) {
    const std::uint32_t in = get_u32();
    const std::uint32_t outd = get_u32();
    GV_CHECK(in == l.in_dim() && outd == l.out_dim(),
             "rectifier layer shape mismatch in weight blob");
    get_floats(l.weight().value.data(), l.weight().value.size());
    get_floats(l.bias().value.data(), l.bias().value.size());
  }
  GV_CHECK(off == bytes.size(), "trailing bytes in rectifier weight blob");
}

void Rectifier::set_adjacency(std::shared_ptr<const CsrMatrix> adjacency) {
  GV_CHECK(adjacency != nullptr, "adjacency must not be null");
  adj_ = std::move(adjacency);
}

}  // namespace gv
