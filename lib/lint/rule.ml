(* The rule catalogue. Every finding carries one of these ids, and
   [@lint.allow "<id>"] / per-directory allowlists suppress by id. *)

let unix = "determinism-unix"
let time = "determinism-time"
let getenv = "determinism-getenv"
let random = "determinism-random"
let marshal = "determinism-marshal"
let hashtbl_hash = "determinism-hashtbl-hash"
let hashtbl_order = "hashtbl-order"
let swallowed_exception = "swallowed-exception"
let ignored_result = "ignored-result"
let digest_compare = "digest-compare"
let engine_handle_compare = "engine-handle-compare"
let unsafe_op = "unsafe-op"
let domain_containment = "domain-containment"
let transitive_nondet = "transitive-nondet"
let unused_export = "unused-export"
let protocol_core = "protocol-core"
let auth_owner = "auth-owner"

(* id, type-aware?, one-line rationale (the DESIGN.md catalogue mirrors
   this list; test_lint checks every id here has a fixture). *)
let all =
  [
    (unix, false, "Unix is wall-clock/OS-dependent; lib/ must stay deterministic");
    (time, false, "Sys.time reads the wall clock; use the simulator's virtual clock");
    (getenv, false, "environment lookups make replicas diverge; thread settings through Config");
    (random, false, "unseeded/global randomness breaks replayable schedules; use Bft_util.Rng");
    (marshal, false, "Marshal bytes are not a stable wire format; use Wire codecs");
    (hashtbl_hash, false, "Hashtbl.hash is not a stable digest; use Sha256/Adhash");
    (hashtbl_order, false, "Hashtbl iteration order must not reach wire/digest/snapshot bytes");
    (swallowed_exception, false, "catch-all try handlers hide faults; match specific exceptions");
    (ignored_result, true, "ignoring a result value silently drops the Error case");
    (digest_compare, true, "polymorphic compare on digest/key strings; use String.equal/compare");
    ( engine_handle_compare,
      true,
      "polymorphic compare on Engine.handle values (they hold closures); use \
       Option.is_none/is_some on timer slots" );
    (unsafe_op, false, "unchecked accesses only in the crypto / Paged_image allowlist");
    ( domain_containment,
      false,
      "Domain/Atomic/Mutex/Condition are banned; the simulator and its verification run on \
       one domain, so any parallelism must come through an allowlist entry a reviewer sees" );
    ( transitive_nondet,
      true,
      "protocol handler / encoder / service execution transitively reaches a nondeterministic \
       seed (wall clock, global Random, getenv) through the call graph; bftlint --why prints \
       the call-path witness" );
    ( unused_export,
      true,
      "an .mli val no other compilation unit references; un-export it, or delete it if its own \
       module does not use it either" );
    ( protocol_core,
      false,
      "a file marked [@@@lint.protocol_core] names Bft_sim or Bft_net.Network; the protocol \
       reaches the simulator only through the replica's port" );
    ( auth_owner,
      false,
      "outside lib/crypto, only Seal calls Auth, Hmac or Signature or brings one, or Bft_crypto \
       whole, into scope (token sizes and signing-key registration excepted): the protocol's \
       tokens are made and checked in one place" );
  ]

let ids = List.map (fun (id, _, _) -> id) all
