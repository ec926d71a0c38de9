// VaultLint source annotation vocabulary.
//
// The paper's confidentiality claim — the private graph, features, and
// labels never leave an enclave except sealed or over an attested channel —
// and the fleet's lock discipline used to live in reviewer memory.  These
// macros turn both into machine-checkable structure: tools/vault_lint
// (libclang when available, a built-in C++ token frontend otherwise) reads
// them off the source and enforces five checks over every translation unit
// in compile_commands.json:
//
//   secret-egress   values whose declaration carries GV_SECRET (types,
//                   fields, locals/params of secret types, functions whose
//                   return is secret) must not flow into untrusted sinks —
//                   GV_LOG_* streams, TraceSpan args, MetricsRegistry
//                   names/labels, FlightRecorder detail strings, raw
//                   OneWayChannel pushes — except through GV_BOUNDARY_OK
//                   seal/attested-channel APIs.
//   channel-kind    every AttestedChannel PayloadKind enumerator must have
//                   a pad-policy entry in kKindPolicies, a kind_name()
//                   switch case, and a per-kind byte-audit accessor case.
//   ecall-abi       structs marked GV_ECALL_ABI (they cross the simulated
//                   enclave boundary by value, i.e. would be EDL-marshaled
//                   in a real SGX port) must be trivially copyable with no
//                   host pointers/references.
//   lock-rank       nested MutexLock/ReaderLock acquisitions must respect
//                   the gv::lockrank rank each gv::Mutex / gv::SharedMutex
//                   declaration states (monotone non-decreasing), and every
//                   guarded mutex's rank must be resolvable.
//   suppression     GV_LINT_ALLOW must name a known check and carry a
//                   non-empty reason.
//
// Cost: on clang the macros expand to zero-codegen `annotate` attributes
// (the lint's libclang frontend reads them from the AST); on every other
// compiler they expand to nothing and the token frontend reads the macro
// text straight from the source.  Either way the compiled binary is
// byte-identical with or without them.
#pragma once


#if defined(__clang__)
#define GV_ANNOTATE(text) __attribute__((annotate(text)))
#else
#define GV_ANNOTATE(text)
#endif

/// Marks a type, field, local, or function (meaning: its return value) as
/// confidential enclave state: private adjacency, feature/label matrices,
/// session/sealing keys.  vault_lint's secret-egress check refuses to let
/// such values reach an untrusted sink.
#define GV_SECRET GV_ANNOTATE("gv::secret")

/// Marks a type or function as enclave-resident (trusted).  Secrets may
/// flow freely into GV_ENCLAVE-marked callees; the egress check only fires
/// at untrusted sinks.
#define GV_ENCLAVE GV_ANNOTATE("gv::enclave")

/// Marks a function as an APPROVED confidentiality boundary: it seals,
/// attests, or otherwise protects its arguments before they leave the
/// trust domain (Enclave::seal, AttestedChannel::send_*).  Secrets may be
/// passed to it without tripping secret-egress.
#define GV_BOUNDARY_OK GV_ANNOTATE("gv::boundary_ok")

/// Marks a struct as crossing the (simulated) enclave ABI by value — the
/// structs a real SGX port would marshal through an EDL ecall/ocall
/// signature.  vault_lint's ecall-abi check requires every field to be
/// trivially copyable with no host pointers or references.
#define GV_ECALL_ABI GV_ANNOTATE("gv::ecall_abi")

/// Suppress one vault_lint finding, with a reason.  Applies to the line it
/// appears on and the line immediately below (so it can sit above the
/// offending statement) or, inside a class body, to the member declared on
/// its line.  Both arguments must be string literals; an empty reason is a
/// compile error AND a suppression-hygiene finding.
#define GV_LINT_ALLOW(check, reason)                                       \
  static_assert(sizeof(check) > 1 && sizeof(reason) > 1,                   \
                "GV_LINT_ALLOW needs a check name and a non-empty reason")
