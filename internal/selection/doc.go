// Package selection is the shared greedy entropy-selection engine behind
// CPClean (paper §4, Eq. 4): given one pinnable CP-query engine per
// validation point, it repeatedly scores candidate training rows by the
// expected conditional entropy of the validation predictions under the
// hypothetical cleaning of each row, and returns the minimizers.
//
// Both iterative cleaners — the library loop (cleaning.CPClean and the
// shared runState of RandomClean) and the serving layer's streaming
// CleanSession — drive the same Selector, so the selection logic and its
// exact prunings live in one place.
//
// # Prunings and the cross-round memo
//
// Beyond the two per-round prunings the paper already licenses (certain
// validation points contribute zero entropy forever; rows outside a point's
// top-K relevance set cannot move its Q2 distribution), the Selector reuses
// work *across* rounds: the per-(row, validation point) hypothesis entropy
// sums are memoized, and pinning row r invalidates only the memo of
// validation points r was relevant to. For every other point v the pin
// provably changes nothing — r can never enter v's top-K in any world, so
// v's Q2 distribution, v's relevance mask, and every hypothesis distribution
// over v are bit-for-bit identical before and after the pin (the lemma
// core.Engine.RelevantRows documents, verified by
// core.TestIrrelevantPinLeavesHypothesesUnchanged) — so round t+1 rescans
// only the (row, point) pairs the round-t pin actually touched.
//
// When a pin does invalidate a point's memo, the point's current entropy and
// relevance mask are rebuilt with one SS-DC sweep (core.Engine.Counts or
// CountsMC) and core.Engine.RelevantRows: after a relevant pin the point's
// answer may have changed, so there is nothing left to reuse.
//
// # Point-major scoring
//
// SelectBatch scores only the stale (point, row) pairs, and hands them to
// its workers point-major over one channel: a worker receives a point's
// pairs in a run, so its Scratch records the point's hypothesis tape once
// and replays it for each row (core.Engine.HypothesisCounts), instead of
// walking every label's tree per row. Each row's score is then summed
// sequentially over the points in order — the current entropy of an
// irrelevant point, the memoized sum of any other — so it carries the same
// bits, and examined/reused the same counts, however the pairs were
// scheduled.
//
// # Invariants
//
//   - PinGeneration staleness: a memo is trusted only while its recorded
//     generation equals the engine's core.Engine.PinGeneration. Any pin the
//     Selector did not account for (or an engine reset) bumps the
//     generation and forces a rebuild, so out-of-band pinning can degrade
//     performance but never correctness.
//   - Determinism: SelectBatch breaks entropy ties toward the smaller row
//     index, and the memo only ever reuses values that are provably
//     bit-identical to a full rescore (the relevance lemma), so a cleaning
//     run — and its examined-hypotheses counts — is reproducible given the
//     same inputs. The serving layer's resume-after-disconnect and
//     crash-recovery guarantees (internal/serve, internal/durable) are
//     built on exactly this property.
//   - Single-goroutine driving: one cleaning run drives its Selector from
//     one goroutine; internal scoring fans out across a bounded worker pool,
//     but Pin/SelectBatch themselves are not safe for concurrent use.
//   - The certainty mask passed to New is aliased, not copied: the caller
//     refreshes it after each pin (binary-MM and threshold callers use
//     different predicates) and the Selector reads it at selection time.
package selection
