#include "sgxsim/attested_channel.hpp"

#include <cstring>

#include "common/error.hpp"

namespace gv {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t& off) {
  GV_CHECK(off + 4 <= in.size(), "truncated attested-channel payload");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(in[off + i]) << (8 * i);
  off += 4;
  return v;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t& off) {
  GV_CHECK(off + 8 <= in.size(), "truncated attested-channel payload");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[off + i]) << (8 * i);
  off += 8;
  return v;
}

// The policy table is indexed by enumerator value; a reordered row would
// silently swap two kinds' padding and audit streams.
constexpr bool policies_match_enumerators() {
  for (std::size_t i = 0; i < AttestedChannel::kNumPayloadKinds; ++i) {
    if (static_cast<std::size_t>(AttestedChannel::kKindPolicies[i].kind) != i) {
      return false;
    }
  }
  return true;
}
static_assert(policies_match_enumerators(),
              "kKindPolicies rows must be ordered by enumerator value");

}  // namespace

const char* AttestedChannel::kind_name(PayloadKind k) {
  switch (k) {
    case PayloadKind::kEmbeddings:
      return "embeddings";
    case PayloadKind::kLabels:
      return "labels";
    case PayloadKind::kRequest:
      return "request";
    case PayloadKind::kPackage:
      return "package";
    case PayloadKind::kTransfer:
      return "transfer";
  }
  return "?";
}

std::size_t AttestedChannel::pad_bucket(std::size_t n) {
  std::size_t b = 64;
  while (b < n) b <<= 1;
  return b;
}

AttestedChannel::AttestedChannel(Enclave& a, Enclave& b, const Sha256Digest& key_a,
                                 const Sha256Digest& key_b)
    : a_(&a), b_(&b), key_a_(key_a), key_b_(key_b) {
  GV_CHECK(&a != &b, "attested channel needs two distinct enclaves");
  handshake();
}

void AttestedChannel::handshake() {
  // Each side contributes a key share bound to its report; a real deployment
  // would run a DH exchange — the simulation derives the shares from the
  // enclave identities, which is enough to make the session key depend on
  // both attested parties.
  std::vector<std::uint8_t> share_a(a_->measurement().begin(), a_->measurement().end());
  share_a.push_back(0xA5);
  std::vector<std::uint8_t> share_b(b_->measurement().begin(), b_->measurement().end());
  share_b.push_back(0x5A);
  const Enclave::Report report_a = a_->create_report(share_a);
  const Enclave::Report report_b = b_->create_report(share_b);
  GV_CHECK(Enclave::verify_report(report_a, key_a_),
           "attestation failed: endpoint A's report does not verify");
  GV_CHECK(Enclave::verify_report(report_b, key_b_),
           "attestation failed: endpoint B's report does not verify");
  // All shards of one tenant run the same rectifier code image; a peer with
  // a different measurement is not a shard of this tenant.
  GV_CHECK(report_a.measurement == report_b.measurement,
           "attestation failed: peer enclave runs different code");

  Sha256 kdf;
  kdf.update(std::string("gnnvault-attested-channel-v1"));
  kdf.update(std::span<const std::uint8_t>(report_a.measurement.data(),
                                           report_a.measurement.size()));
  kdf.update(share_a);
  kdf.update(share_b);
  // Per-handshake freshness: identical measurements would otherwise derive
  // the SAME key after a rebind (the shares above are measurement-derived
  // in this simulation), and a ciphertext captured from the retired session
  // must not authenticate under the new one.  A real deployment gets this
  // from the ephemeral DH exchange; the generation counter stands in.
  std::vector<std::uint8_t> fresh(8);
  for (int i = 0; i < 8; ++i) {
    fresh[i] = static_cast<std::uint8_t>(handshake_generation_ >> (8 * i));
  }
  kdf.update(fresh);
  const Sha256Digest k = kdf.finish();
  std::memcpy(session_key_.data(), k.data(), session_key_.size());
}

AttestedChannel::AttestedChannel(Enclave& a, Enclave& b)
    : AttestedChannel(a, b, Enclave::default_platform_key(),
                      Enclave::default_platform_key()) {}

void AttestedChannel::rebind(const Enclave& dead, Enclave& fresh,
                             const Sha256Digest& fresh_key) {
  GV_CHECK(&fresh != a_ && &fresh != b_,
           "fresh enclave is already an endpoint of this channel");
  const int idx = endpoint_index(dead);
  if (idx == 0) {
    a_ = &fresh;
    key_a_ = fresh_key;
  } else {
    b_ = &fresh;
    key_b_ = fresh_key;
  }
  ++handshake_generation_;  // genuinely retires the old session key
  handshake();
  MutexLock lock(mu_);
  for (auto& per_kind : queue_to_) {
    for (auto& q : per_kind) q.clear();
  }
}

int AttestedChannel::endpoint_index(const Enclave& e) const {
  if (&e == a_) return 0;
  if (&e == b_) return 1;
  throw Error("enclave is not an endpoint of this attested channel");
}

AttestedChannel::Sealed AttestedChannel::encrypt(
    const Enclave& from, std::span<const std::uint8_t> plaintext) {
  Sealed blob;
  const std::uint64_t ctr = ++nonce_counter_;
  for (int i = 0; i < 8; ++i) blob.nonce[i] = static_cast<std::uint8_t>(ctr >> (8 * i));
  blob.nonce[8] = static_cast<std::uint8_t>(endpoint_index(from));
  blob.ciphertext = aead_encrypt(session_key_, blob.nonce, plaintext, {}, blob.tag);
  return blob;
}

std::vector<std::uint8_t> AttestedChannel::decrypt(const Enclave& to,
                                                   const Sealed& blob) {
  // Direction check: a block must have been sealed by the OTHER endpoint.
  GV_CHECK(blob.nonce[8] != endpoint_index(to),
           "attested-channel block addressed to its own sender");
  return aead_decrypt(session_key_, blob.nonce, blob.ciphertext, {}, blob.tag);
}

void AttestedChannel::send_block(const Enclave& from, PayloadKind kind,
                                 std::vector<std::uint8_t> payload,
                                 std::size_t logical) {
  if (policy(kind).pad == PadPolicy::kBucket) {
    // Cardinality hiding: the untrusted relay must not learn how many
    // boundary rows / frontier ids / moved nodes a block carries from its
    // size, so bucket-padded kinds seal a power-of-two-sized plaintext
    // (explicit count fields keep the receiver's parse exact).
    payload.resize(pad_bucket(payload.size()), 0);
  }

  const int to = 1 - endpoint_index(from);
  Sealed blob = encrypt(from, payload);
  // Leaving the sender is an OCALL-shaped transition; entering the receiver
  // is an MEE-encrypted copy (charged now; the recv pop is in-enclave work).
  const_cast<Enclave&>(from).charge_ocall();
  (to == 0 ? a_ : b_)->copy_in(payload.size());
  MutexLock lock(mu_);
  queue_to_[static_cast<std::size_t>(kind)][to].push_back(std::move(blob));
  kind_bytes_[static_cast<std::size_t>(kind)] += logical;
  padded_bytes_ += payload.size();
  ++blocks_;
}

std::vector<std::uint8_t> AttestedChannel::pop_block(const Enclave& to,
                                                     PayloadKind kind,
                                                     const char* what) {
  Sealed blob;
  {
    MutexLock lock(mu_);
    auto& q = queue_to_[static_cast<std::size_t>(kind)][endpoint_index(to)];
    GV_CHECK(!q.empty(), what);
    blob = std::move(q.front());
    q.pop_front();
  }
  return decrypt(to, blob);
}

bool AttestedChannel::has_block(const Enclave& to, PayloadKind kind) const {
  MutexLock lock(mu_);
  return !queue_to_[static_cast<std::size_t>(kind)][endpoint_index(to)].empty();
}

void AttestedChannel::send_embeddings(const Enclave& from,
                                      std::vector<std::uint32_t> nodes,
                                      Matrix rows) {
  GV_CHECK(nodes.size() == rows.rows(), "one node id per embedding row");
  std::vector<std::uint8_t> payload;
  payload.reserve(8 + nodes.size() * 4 + rows.payload_bytes());
  put_u32(payload, static_cast<std::uint32_t>(nodes.size()));
  put_u32(payload, static_cast<std::uint32_t>(rows.cols()));
  for (const auto v : nodes) put_u32(payload, v);
  const auto* fp = reinterpret_cast<const std::uint8_t*>(rows.data());
  payload.insert(payload.end(), fp, fp + rows.payload_bytes());

  const std::size_t logical = payload.size();
  send_block(from, PayloadKind::kEmbeddings, std::move(payload), logical);
}

AttestedChannel::EmbeddingBlock AttestedChannel::recv_embeddings(const Enclave& to) {
  const auto payload = pop_block(to, PayloadKind::kEmbeddings,
                                 "no pending embedding block on attested channel");
  std::size_t off = 0;
  EmbeddingBlock out;
  const std::uint32_t count = get_u32(payload, off);
  const std::uint32_t cols = get_u32(payload, off);
  out.nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.nodes.push_back(get_u32(payload, off));
  out.rows = Matrix(count, cols);
  // <= rather than ==: the tail beyond the logical payload is bucket
  // padding (authenticated along with everything else by the AEAD tag).
  GV_CHECK(off + out.rows.payload_bytes() <= payload.size(),
           "embedding block size mismatch");
  std::memcpy(out.rows.data(), payload.data() + off, out.rows.payload_bytes());
  return out;
}

bool AttestedChannel::has_embeddings(const Enclave& to) const {
  return has_block(to, PayloadKind::kEmbeddings);
}

void AttestedChannel::send_labels(const Enclave& from,
                                  std::vector<std::uint32_t> nodes,
                                  std::vector<std::uint32_t> labels) {
  GV_CHECK(nodes.size() == labels.size(), "one node id per label");
  std::vector<std::uint8_t> payload;
  payload.reserve(4 + nodes.size() * 8);
  put_u32(payload, static_cast<std::uint32_t>(nodes.size()));
  for (const auto v : nodes) put_u32(payload, v);
  for (const auto l : labels) put_u32(payload, l);

  const std::size_t logical = payload.size();
  send_block(from, PayloadKind::kLabels, std::move(payload), logical);
}

AttestedChannel::LabelBlock AttestedChannel::recv_labels(const Enclave& to) {
  const auto payload = pop_block(to, PayloadKind::kLabels,
                                 "no pending label block on attested channel");
  std::size_t off = 0;
  LabelBlock out;
  const std::uint32_t count = get_u32(payload, off);
  out.nodes.reserve(count);
  out.labels.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.nodes.push_back(get_u32(payload, off));
  for (std::uint32_t i = 0; i < count; ++i) out.labels.push_back(get_u32(payload, off));
  GV_CHECK(off == payload.size(), "label block size mismatch");
  return out;
}

bool AttestedChannel::has_labels(const Enclave& to) const {
  return has_block(to, PayloadKind::kLabels);
}

void AttestedChannel::send_request(const Enclave& from,
                                   std::vector<std::uint32_t> nodes,
                                   std::uint64_t query_id) {
  std::vector<std::uint8_t> payload;
  payload.reserve(4 + nodes.size() * 4 + 8);
  put_u32(payload, static_cast<std::uint32_t>(nodes.size()));
  for (const auto v : nodes) put_u32(payload, v);
  // The logical audit counts the frontier itself; the QueryLens trace-id
  // trailer is sealed alongside it but is telemetry, not frontier bytes.
  const std::size_t logical = payload.size();
  put_u64(payload, query_id);

  send_block(from, PayloadKind::kRequest, std::move(payload), logical);
}

std::vector<std::uint32_t> AttestedChannel::recv_request(const Enclave& to,
                                                         std::uint64_t* query_id) {
  const auto payload = pop_block(to, PayloadKind::kRequest,
                                 "no pending halo request on attested channel");
  std::size_t off = 0;
  const std::uint32_t count = get_u32(payload, off);
  std::vector<std::uint32_t> nodes;
  nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) nodes.push_back(get_u32(payload, off));
  const std::uint64_t qid = get_u64(payload, off);
  if (query_id != nullptr) *query_id = qid;
  GV_CHECK(off <= payload.size(), "halo request size mismatch");
  return nodes;
}

bool AttestedChannel::has_request(const Enclave& to) const {
  return has_block(to, PayloadKind::kRequest);
}

void AttestedChannel::send_package(const Enclave& from,
                                   std::vector<std::uint8_t> payload) {
  const std::size_t logical = payload.size();
  send_block(from, PayloadKind::kPackage, std::move(payload), logical);
}

std::vector<std::uint8_t> AttestedChannel::recv_package(const Enclave& to) {
  return pop_block(to, PayloadKind::kPackage,
                   "no pending package on attested channel");
}

void AttestedChannel::send_transfer(const Enclave& from,
                                    std::vector<std::uint8_t> payload) {
  // The payload is opaque to the channel, so the logical length is framed
  // inside the sealed block ahead of the bucket padding send_block applies.
  std::vector<std::uint8_t> framed;
  framed.reserve(4 + payload.size());
  put_u32(framed, static_cast<std::uint32_t>(payload.size()));
  framed.insert(framed.end(), payload.begin(), payload.end());
  const std::size_t logical = payload.size();

  send_block(from, PayloadKind::kTransfer, std::move(framed), logical);
}

std::vector<std::uint8_t> AttestedChannel::recv_transfer(const Enclave& to) {
  const auto framed = pop_block(to, PayloadKind::kTransfer,
                                "no pending node transfer on attested channel");
  std::size_t off = 0;
  const std::uint32_t len = get_u32(framed, off);
  GV_CHECK(off + len <= framed.size(), "node transfer size mismatch");
  return std::vector<std::uint8_t>(framed.begin() + off,
                                   framed.begin() + off + len);
}

bool AttestedChannel::has_transfer(const Enclave& to) const {
  return has_block(to, PayloadKind::kTransfer);
}

void AttestedChannel::drop_pending() {
  MutexLock lock(mu_);
  for (auto& per_kind : queue_to_) {
    for (auto& q : per_kind) q.clear();
  }
}

std::uint64_t AttestedChannel::kind_bytes(PayloadKind k) const {
  MutexLock lock(mu_);
  // Per-kind audit cases (paired with kind_name(); vault_lint's
  // channel-kind check keys on these).
  switch (k) {
    case PayloadKind::kEmbeddings:
    case PayloadKind::kLabels:
    case PayloadKind::kRequest:
    case PayloadKind::kPackage:
    case PayloadKind::kTransfer:
      return kind_bytes_[static_cast<std::size_t>(k)];
  }
  throw Error("unknown attested-channel payload kind");
}

std::uint64_t AttestedChannel::total_payload_bytes() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto b : kind_bytes_) total += b;
  return total;
}

std::uint64_t AttestedChannel::padded_bytes() const {
  MutexLock lock(mu_);
  return padded_bytes_;
}

std::uint64_t AttestedChannel::blocks_sent() const {
  MutexLock lock(mu_);
  return blocks_;
}

}  // namespace gv
