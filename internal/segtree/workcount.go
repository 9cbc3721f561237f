//go:build workcount

package segtree

import "sync/atomic"

// WorkCounting reports whether this build counts convolutions: true under
// the workcount build tag.
const WorkCounting = true

var convs atomic.Int64

// countConvs adds n node convolutions to the count.
func countConvs(n int) { convs.Add(int64(n)) }

// Convolutions returns the number of node convolutions, probe-chain steps
// included, every tree in the process has done: Build's pairs, and each
// level SetLeafProbe, SetLeafWalk, LeafPath and Rejoin walk (two per level
// that also carries a probe chain). The count is exact, so two builds
// compare their work with no timing noise.
func Convolutions() int64 { return convs.Load() }
