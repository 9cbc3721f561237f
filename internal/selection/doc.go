// Package selection is the shared greedy entropy-selection engine behind
// CPClean (paper §4, Eq. 4): given one pinnable CP-query engine per
// validation point, it repeatedly scores candidate training rows by the
// expected conditional entropy of the validation predictions under the
// hypothetical cleaning of each row, and returns the minimizers.
//
// Run is the whole greedy loop of Algorithm 3 and its only implementation:
// it builds one truncated engine per validation point (in parallel), keeps
// the certainty mask (exact MM for binary labels, threshold certainty over
// the Q2 counts otherwise), the cleaned rows and the oracle's truth, and
// cleans a row by pinning it through its Selector and refreshing certainty.
// Every iterative cleaner steps a Run: cleaning.CPClean and RandomClean add
// only the world choice and the trajectory, and the serving layer's clean
// session only the step budget and the wire-format step. So the two
// drivers make the same decisions by construction.
//
// # Prunings and the cross-round memo
//
// Beyond the two per-round prunings the paper already licenses (certain
// validation points contribute zero entropy forever; rows outside a point's
// top-K relevance set cannot move its Q2 distribution), the Selector reuses
// work across rounds. Each point keeps a core.Retained, its Q2 memo and
// relevance mask under the current pins, and the per-row hypothesis entropy
// sums scored against it. A pin of a row r that cannot enter the point's
// top-K in any world changes nothing for that point: not its Q2
// distribution, its mask, its Q1 answer, nor any hypothesis distribution
// over it (the lemma core.Engine.RelevantRows documents, verified by
// core.TestIrrelevantPinLeavesHypothesesUnchanged). So the Retained keeps
// its memo across such pins, and the sums are dropped only after it swept,
// whoever asked for the sweep. Round t+1 rescans only the (row, point)
// pairs the round-t pins actually touched.
//
// The same lemma bounds the certainty refresh: after a pin, a Run re-checks
// only the uncertain points whose memo the pins since their last check may
// have changed (core.Retained.UnchangedSince), ≈2.7 of ≈25.6 per step on
// loadbench's clean-live data. Multi-label certainty reads the memo's
// counts, so SelectBatch reuses that sweep.
//
// # Point-major scoring
//
// SelectBatch builds each uncertain point's stale rows — relevant, not
// memoized — into one group, in the same pass over the (point, row) pairs
// that counts examined and reused hypotheses, and hands its workers one
// group, or a part of one, at a time: one hypothesis group pass
// (core.Engine.HypothesisGroup) serves all of a part's rows, walking the
// point's plain trees once per scan position. A round has few stale points
// (≈2.74 of ≈25.6 on loadbench's clean-live data, at most one in 63 of 214
// rounds), so a group is split into up to Parallelism parts, each paying
// its own plain pass. Each row's score
// is then summed over the points in order — the current entropy of an
// irrelevant point, the memoized sum of any other — so it carries the same
// bits, and examined/reused the same counts, however the groups were split
// or scheduled; the batch best rows are picked by a partial selection
// under the same total order as a full sort (entropy, then the smaller
// row).
//
// # Invariants
//
//   - One memo per point: core.Retained alone decides whether a pin left a
//     point's memo valid, by diffing the engine's pins against the copy
//     the memo was computed under. Pins the Selector did not make (or an
//     engine reset) are diffed the same way, so out-of-band pinning can
//     cost sweeps but never correctness.
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
//     refreshes it after each pin and the Selector reads it at selection
//     time. A Run keeps this invariant itself; it binds only callers that
//     drive a Selector directly.
package selection
