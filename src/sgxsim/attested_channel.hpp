// Mutually attested enclave-to-enclave channel.
//
// ShardVault runs one tenant across several enclaves (possibly on several
// SGX platforms); at every rectifier layer, boundary-node embeddings must
// move from the shard that computed them to the shards whose nodes border
// them.  That traffic crosses untrusted memory, so it must be protected and
// the peers must prove their identity first:
//
//   handshake: each side produces a local-attestation report over its key
//   share (Enclave::create_report); the verifier checks the MAC with the
//   peer platform's key — the stand-in for the quoting/IAS step of remote
//   attestation when the peer is another machine — and requires the peer's
//   MEASUREMENT to match its own (all shards of one tenant run identical
//   rectifier code).  The session key is derived from both measurements and
//   both key shares, and every payload is ChaCha20-Poly1305-sealed under it.
//
// The API is deliberately narrow: every payload crossing the channel is one
// of the PayloadKind enumerators — embeddings, labels, halo-pull requests
// (node-id lists the cold cross-shard path uses to ask a peer for specific
// boundary embeddings), node-transfer payloads (GraphDrift migration moving
// one node's row + label between live shards — the ONLY kind that may carry
// adjacency, and it is audited separately for exactly that reason), and
// (for the replica channel only) whole sealed shard packages.  There is no
// other way to put raw adjacency on an inter-shard channel, and per-kind
// byte counters let tests audit exactly that invariant.  The untrusted
// world that relays the ciphertext learns only block sizes, never edges —
// in particular a halo request's node ids (which would reveal a query's
// private frontier) are only ever plaintext inside the two attested
// enclaves.
//
// Padding policy lives in ONE table, kKindPolicies: kinds whose size would
// leak a private cardinality (embeddings → cut size, requests → frontier
// width, transfers → move-set size) are padded to power-of-two byte buckets
// before sealing; whole-store kinds (labels, packages) whose size is public
// ship exact.  The per-kind audit counters stay LOGICAL bytes (what the
// enclaves meant to say); padded_bytes() reports what actually crossed the
// wire.  vault_lint's channel-kind check enforces that every enumerator has
// a kKindPolicies row, a kind_name() case, and a byte-audit case — adding a
// kind without deciding its padding and audit story is a CI failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/annotations.hpp"
#include "common/thread_safety.hpp"
#include "sgxsim/enclave.hpp"
#include "tensor/matrix.hpp"

namespace gv {

class AttestedChannel {
 public:
  /// Every payload crossing the channel is exactly one of these.  Adding a
  /// kind requires a kKindPolicies row (pad policy + audit name) and a
  /// kind_name()/kind_bytes() case; vault_lint's channel-kind check fails
  /// CI otherwise.
  enum class PayloadKind : std::uint8_t {
    kEmbeddings = 0,  // boundary-node embedding rows (halo exchange)
    kLabels = 1,      // node-id -> label store blocks
    kRequest = 2,     // cold-path halo-pull node-id lists
    kPackage = 3,     // whole sealed shard packages (replica channel only)
    kTransfer = 4,    // GraphDrift node migration payloads
  };
  static constexpr std::size_t kNumPayloadKinds = 5;

  /// How a kind's sealed block size relates to its plaintext size.
  enum class PadPolicy : std::uint8_t {
    kBucket,  // pad to pad_bucket(): the size would leak a cardinality
    kExact,   // ship exact: the size is public (whole-store blocks)
  };
  struct KindPolicy {
    PayloadKind kind;
    const char* name;
    PadPolicy pad;
  };
  /// The single source of truth for per-kind wire policy, indexed by
  /// enumerator value.
  static constexpr KindPolicy kKindPolicies[kNumPayloadKinds] = {
      {PayloadKind::kEmbeddings, "embeddings", PadPolicy::kBucket},
      {PayloadKind::kLabels, "labels", PadPolicy::kExact},
      {PayloadKind::kRequest, "request", PadPolicy::kBucket},
      {PayloadKind::kPackage, "package", PadPolicy::kExact},
      {PayloadKind::kTransfer, "transfer", PadPolicy::kBucket},
  };
  static constexpr const KindPolicy& policy(PayloadKind k) {
    return kKindPolicies[static_cast<std::size_t>(k)];
  }
  /// Audit name of a kind ("embeddings", "labels", ...).
  static const char* kind_name(PayloadKind k);

  /// Handshake between `a` and `b`.  `key_a` / `key_b` are the platform
  /// keys the verifier trusts for each side (same-platform peers pass the
  /// same key twice).  Throws gv::Error when a report fails verification or
  /// the measurements differ.
  AttestedChannel(Enclave& a, Enclave& b, const Sha256Digest& key_a,
                  const Sha256Digest& key_b);
  /// Same-platform convenience (both enclaves under the default key).
  AttestedChannel(Enclave& a, Enclave& b);

  AttestedChannel(const AttestedChannel&) = delete;
  AttestedChannel& operator=(const AttestedChannel&) = delete;

  /// Rejoin handshake: replace the endpoint currently occupied by `dead`
  /// (e.g. a crashed shard enclave) with `fresh` — a promoted replica with
  /// the SAME measurement — trusted under `fresh_key`, and re-run the mutual
  /// attestation handshake.  The session key is re-derived from the new key
  /// shares; any blocks still queued in either direction are dropped, since
  /// they were sealed under the retired session key and their sender or
  /// addressee no longer exists.  Byte/block audit counters are cumulative
  /// across rebinds.
  void rebind(const Enclave& dead, Enclave& fresh, const Sha256Digest& fresh_key);

  struct EmbeddingBlock {
    std::vector<std::uint32_t> nodes;  // global node ids of the rows
    GV_SECRET Matrix rows;             // private boundary embeddings
  };
  struct LabelBlock {
    std::vector<std::uint32_t> nodes;
    GV_SECRET std::vector<std::uint32_t> labels;
  };

  /// Send boundary-node embedding rows from `from` to the other endpoint.
  /// Must be called with one of the two handshaked enclaves.
  void send_embeddings(const Enclave& from, std::vector<std::uint32_t> nodes,
                       Matrix rows) GV_BOUNDARY_OK;
  /// Pop the oldest embedding block addressed to `to` (FIFO); throws when
  /// none is pending or the AEAD tag fails.
  EmbeddingBlock recv_embeddings(const Enclave& to);
  bool has_embeddings(const Enclave& to) const;

  void send_labels(const Enclave& from, std::vector<std::uint32_t> nodes,
                   std::vector<std::uint32_t> labels) GV_BOUNDARY_OK;
  LabelBlock recv_labels(const Enclave& to);
  bool has_labels(const Enclave& to) const;

  /// Cold-path halo pull: ask the peer for specific nodes' embeddings (it
  /// answers with send_embeddings).  The request is a bare node-id list —
  /// frontier metadata, never adjacency — and is sealed like every other
  /// payload, so the relaying untrusted world learns only its size.
  /// `query_id` is the QueryLens causal-trace id riding inside the sealed
  /// payload (a trailer after the node list), so the peer can attribute its
  /// halo-serve work to the originating query; it is telemetry, excluded
  /// from the logical request_bytes() audit, and never visible to the
  /// untrusted relay.  0 means "untraced".
  void send_request(const Enclave& from, std::vector<std::uint32_t> nodes,
                    std::uint64_t query_id = 0) GV_BOUNDARY_OK;
  std::vector<std::uint32_t> recv_request(const Enclave& to,
                                          std::uint64_t* query_id = nullptr);
  bool has_request(const Enclave& to) const;

  /// Replication path: ship an opaque package payload (e.g. a serialized
  /// shard package) to the peer, which re-seals it under its own platform
  /// key.  Inter-shard inference channels never call this.
  void send_package(const Enclave& from, std::vector<std::uint8_t> payload)
      GV_BOUNDARY_OK;
  std::vector<std::uint8_t> recv_package(const Enclave& to);

  /// Migration path (GraphDrift): ship one node's sealed transfer payload
  /// (features digestible state: adjacency row + degrees + current label)
  /// from the shard losing the node to the shard gaining it.  The only
  /// inter-shard kind that may carry adjacency; transfer_bytes() audits it.
  void send_transfer(const Enclave& from, std::vector<std::uint8_t> payload)
      GV_BOUNDARY_OK;
  std::vector<std::uint8_t> recv_transfer(const Enclave& to);
  bool has_transfer(const Enclave& to) const;

  /// Drop every queued block (all kinds, both directions).  Failure
  /// cleanup: a cold cross-shard walk aborted mid-exchange must not leave
  /// sealed blocks behind for a later exchange to pop.  Audit counters are
  /// NOT rolled back — the bytes did cross.
  void drop_pending();

  // --- Audit counters (logical plaintext payload bytes by kind). ---------
  std::uint64_t kind_bytes(PayloadKind k) const;
  std::uint64_t embedding_bytes() const {
    return kind_bytes(PayloadKind::kEmbeddings);
  }
  std::uint64_t label_bytes() const { return kind_bytes(PayloadKind::kLabels); }
  std::uint64_t package_bytes() const {
    return kind_bytes(PayloadKind::kPackage);
  }
  std::uint64_t request_bytes() const {
    return kind_bytes(PayloadKind::kRequest);
  }
  std::uint64_t transfer_bytes() const {
    return kind_bytes(PayloadKind::kTransfer);
  }
  std::uint64_t total_payload_bytes() const;
  /// Wire bytes after bucket padding (>= total_payload_bytes; the delta is
  /// what the padding spent to hide cut/frontier/move-set cardinalities).
  std::uint64_t padded_bytes() const;
  std::uint64_t blocks_sent() const;

  /// The padding bucket a payload of `n` bytes lands in: the next power of
  /// two >= max(n, 64).  Exposed so tests can pin the wire-size policy.
  static std::size_t pad_bucket(std::size_t n);

 private:
  struct Sealed {
    AeadNonce nonce{};
    std::vector<std::uint8_t> ciphertext;
    AeadTag tag{};
  };

  int endpoint_index(const Enclave& e) const;
  Sealed encrypt(const Enclave& from, std::span<const std::uint8_t> plaintext);
  std::vector<std::uint8_t> decrypt(const Enclave& to, const Sealed& blob);
  /// Mutual attestation + session-key derivation over the current endpoints.
  void handshake();

  /// Unified egress: applies the kind's pad policy, seals, charges the
  /// boundary-crossing cost model, enqueues toward the peer, and folds
  /// `logical` plaintext bytes into the kind's audit counter.
  void send_block(const Enclave& from, PayloadKind kind,
                  std::vector<std::uint8_t> payload, std::size_t logical)
      GV_BOUNDARY_OK;
  /// Pop + unseal the oldest `kind` block addressed to `to`; `what` names
  /// the kind in the empty-queue error.
  std::vector<std::uint8_t> pop_block(const Enclave& to, PayloadKind kind,
                                      const char* what);
  bool has_block(const Enclave& to, PayloadKind kind) const;

  Enclave* a_;
  Enclave* b_;
  Sha256Digest key_a_{};
  Sha256Digest key_b_{};
  /// Bumped on every rebind and mixed into the KDF, so the rebound session
  /// key differs even though the peer measurement is identical.
  std::uint64_t handshake_generation_ = 0;
  GV_SECRET AeadKey session_key_{};
  std::atomic<std::uint64_t> nonce_counter_{0};

  mutable Mutex mu_{gv::lockrank::kChannel};
  // queue_to_[kind][i] holds `kind` blocks addressed to endpoint i
  // (0 = a, 1 = b).
  std::deque<Sealed> queue_to_[kNumPayloadKinds][2];
  std::uint64_t kind_bytes_[kNumPayloadKinds] = {};
  std::uint64_t padded_bytes_ = 0;
  std::uint64_t blocks_ = 0;
};

}  // namespace gv
