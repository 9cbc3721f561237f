//go:build !workcount

package segtree

// WorkCounting reports whether this build counts convolutions: true under
// the workcount build tag. This build counts nothing.
const WorkCounting = false

// countConvs is a no-op without the workcount build tag.
func countConvs(int) {}

// Convolutions returns 0 without the workcount build tag.
func Convolutions() int64 { return 0 }
