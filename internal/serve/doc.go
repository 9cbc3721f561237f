// Package serve is the concurrent batch CP-query serving layer: it owns
// registered incomplete datasets and answers Q1/Q2/entropy queries for many
// test points per request, amortizing the expensive per-test-point state
// (engine construction, Scratch segment trees) across queries instead of
// rebuilding it per call the way the one-shot core API does.
//
// # Pooling
//
// Three pooling levers, in decreasing order of savings:
//
//   - Scratches (O(N·K) segment trees) are pooled per (dataset, K) via
//     core.ScratchPool — every engine of one dataset has the same shape, so
//     one free list serves every worker and every test point.
//   - Engines (O(NM log NM) candidate sort) are cached per (dataset, K) in
//     an LRU keyed by test point, so repeated queries for hot points skip
//     construction entirely. Pooled engines are never pinned, so one
//     cached engine safely serves many goroutines, each with its own pooled
//     Scratch. Session queries fetch the same pooled engine and pin a
//     core.Engine.Fork of it (shared view, private pins).
//   - Batch requests fan out across a bounded worker pool mirroring
//     cleaning.Options.Parallelism.
//
// # Clean sessions
//
// A CPClean run is served as an addressable Session decoupled from any
// connection. Its lifecycle states are:
//
//	pending   → created; no driver has touched it, engines not yet built
//	running   → a driver has built the engines and executed ≥ 0 steps
//	suspended → re-materialized from the durable journal after a restart;
//	            holds request + step history only, next driver rebuilds
//	done      → run finished; engines released, history kept for replay
//	failed    → a server-side step/build/journal error killed the run;
//	            history stays replayable, live stepping is over
//
// Invariants the session machinery relies on:
//
//   - Single-driver rule: at most one driver (/next or /stream) is attached
//     at a time; concurrent drivers get ErrBusy (409). Everything a driver
//     does — building, replaying, stepping, recording — happens inside that
//     exclusive slot, which is why history indexing and engine access need
//     no extra locking.
//   - Append-only history: every executed step is recorded before it is
//     handed to the client, so a disconnect can never lose an acknowledged
//     step, and /stream?from=k replays are exact.
//   - Deterministic stepping: given the same dataset, request, and pin
//     prefix, CleanSession.Step picks the same row, candidate, and
//     examined_hypotheses count. A step is one step of a selection.Run,
//     the loop cleaning.CPClean runs too, so a session cleans the rows
//     the library would (TestCPCleanDriversLockstep in the root package).
//     This is load-bearing for resume (TestSessionResumeLockstep) and for
//     crash recovery (the journaled prefix is re-executed and verified,
//     then the run continues bit-identically).
//   - Engine staleness: selection memos (core.Retained) are validated by
//     diffing the engine's pins; a session's engines are private to its
//     Run, so pins advance only under its own driver.
//
// # Durability
//
// With Config.DataDir set (constructor Open), registrations and session
// events are journaled through internal/durable and replayed on startup;
// see durable.go in this package for the journal/recovery design. A server
// outside its serving window — still replaying, or after Close — answers
// every request ErrUnavailable (HTTP 503).
package serve
