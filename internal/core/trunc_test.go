package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/knn"
)

// oracleSpecials are the awkward similarities the truncation oracle draws
// from: both zeros, both infinities, NaN, extremes, subnormals, and a few
// small grid values that tie across rows.
var oracleSpecials = []float64{
	math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1),
	-1, 1, 0.5, -0.5, 0.25, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// oracleInstance builds an instance whose similarities mix the specials
// with normal draws, so exact ties, ±0, ±Inf and NaN land on both sides of
// the truncation threshold.
func oracleInstance(rng *rand.Rand, n, maxM, numLabels int) *Instance {
	sims := make([][]float64, n)
	labels := make([]int, n)
	for i := range sims {
		row := make([]float64, 1+rng.Intn(maxM))
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = rng.NormFloat64()
			} else {
				row[j] = oracleSpecials[rng.Intn(len(oracleSpecials))]
			}
		}
		sims[i] = row
		labels[i] = rng.Intn(numLabels)
	}
	for l := 0; l < numLabels && l < n; l++ {
		labels[l] = l
	}
	return MustNewInstance(sims, labels, numLabels)
}

// oracleCorpus draws one instance for a trial, cycling through the package's
// generators, with N ∈ {K, K+1} on every fifth trial.
func oracleCorpus(rng *rand.Rand, trial, k int) *Instance {
	gens := []func(*rand.Rand, int, int, int) *Instance{oracleInstance, randomInstance, tiedInstance, nearZeroInstance}
	n := k + 2 + rng.Intn(20)
	if trial%5 == 0 {
		n = k + rng.Intn(2)
	}
	return gens[trial%len(gens)](rng, n, 5, 2+rng.Intn(2))
}

// truncPair is a truncated engine under test, the untruncated reference over
// the same instance, and Retained memos over the truncated one.
type truncPair struct {
	ref, tr  *Engine
	rsc, tsc *Scratch
	k        int
	rt, rtMC *Retained
}

func newTruncPair(t testing.TB, inst *Instance, k int) *truncPair {
	t.Helper()
	return pairEngines(t, NewEngineFromInstance(inst), NewTruncatedEngineFromInstance(inst, k), k)
}

// pairEngines pairs a truncated engine with its untruncated reference.
func pairEngines(t testing.TB, ref, tr *Engine, k int) *truncPair {
	t.Helper()
	p := &truncPair{ref: ref, tr: tr, k: k}
	p.rsc = p.ref.MustScratch(k)
	p.tsc = p.tr.MustScratch(k)
	p.rt = mustRetained(t, p.tr, k, false)
	p.rtMC = mustRetained(t, p.tr, k, true)
	return p
}

// step applies one random pin operation to the reference and the
// truncated engine alike.
func (p *truncPair) step(t testing.TB, rng *rand.Rand) {
	t.Helper()
	applyRandomPinOp(rng, p.ref, p.tr)
}

// check compares every query of the truncated engine against the
// reference under the current pins, with ==.
func (p *truncPair) check(t testing.TB, rng *rand.Rand, what string) {
	t.Helper()
	ref, tr, k := p.ref, p.tr, p.k
	equal := func(op string, got, want []float64) {
		t.Helper()
		for y := range want {
			if got[y] != want[y] {
				t.Fatalf("%s: %s = %v, untruncated %v (k=%d n=%d kept %d/%d)",
					what, op, got, want, k, ref.N(), len(tr.order), len(ref.order))
			}
		}
	}
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
	equal("Counts", clone(tr.Counts(p.tsc, -1, -1)), ref.Counts(p.rsc, -1, -1))
	equal("CountsMC", clone(tr.CountsMC(p.tsc, -1, -1)), ref.CountsMC(p.rsc, -1, -1))
	row := rng.Intn(ref.N())
	cand := rng.Intn(ref.inst.M(row))
	equal("Counts override", clone(tr.Counts(p.tsc, row, cand)), ref.Counts(p.rsc, row, cand))
	equal("CountsMC override", clone(tr.CountsMC(p.tsc, row, cand)), ref.CountsMC(p.rsc, row, cand))
	equal("Retained", clone(p.rt.Counts()), ref.Counts(p.rsc, -1, -1))
	equal("Retained MC", clone(p.rtMC.Counts()), ref.CountsMC(p.rsc, -1, -1))
	wantRel := ref.RelevantRows(k)
	if got := tr.RelevantRows(k); !slices.Equal(got, wantRel) {
		t.Fatalf("%s: RelevantRows %v, untruncated %v", what, got, wantRel)
	}
	if !slices.Equal(p.rt.Relevant(), wantRel) || !slices.Equal(p.rtMC.Relevant(), wantRel) {
		t.Fatalf("%s: Retained relevance %v / %v, fresh %v", what, p.rt.Relevant(), p.rtMC.Relevant(), wantRel)
	}
	rows := rng.Perm(ref.N())
	if len(rows) > 32 {
		rows = rows[:32] // a sample keeps large instances fast
	}
	for _, r := range rows {
		if ref.Pin(r) >= 0 {
			continue
		}
		got := tr.HypothesisCounts(p.tsc, r)
		want := ref.HypothesisCounts(p.rsc, r)
		for j := range want {
			equal("HypothesisCounts", got[j], want[j])
		}
	}
	if ref.numLabels == 2 {
		for _, ov := range [][2]int{{-1, -1}, {row, cand}} {
			got, err := tr.CheckMM(k, ov[0], ov[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.CheckMM(k, ov[0], ov[1])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: CheckMM(override %v) %v, untruncated %v", what, ov, got, want)
			}
		}
	}
	// A truncation for K is sound for every smaller K too.
	if k > 1 {
		k2 := 1 + rng.Intn(k-1)
		equal("Counts smaller K", clone(tr.Counts(tr.MustScratch(k2), -1, -1)), ref.Counts(ref.MustScratch(k2), -1, -1))
	}
}

// TestTruncatedEngineMatchesUntruncated is the oracle contract of the
// threshold truncation: across K ∈ {1, 3, 7}, instances with ties, ±0,
// ±Inf and NaN, N down to K, and random pin/unpin/repin/reset sequences,
// every query of a truncated engine — Counts, CountsMC (with and without an
// override), HypothesisCounts, CheckMM, RelevantRows and Retained memo/sweep
// sequences — equals the untruncated engine's with ==.
func TestTruncatedEngineMatchesUntruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	truncated := 0
	for trial := 0; trial < 180; trial++ {
		k := []int{1, 3, 7}[trial%3]
		inst := oracleCorpus(rng, trial, k)
		p := newTruncPair(t, inst, k)
		if len(p.tr.order) < len(p.ref.order) {
			truncated++
		}
		p.check(t, rng, "unpinned")
		for s := 0; s < 10; s++ {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				p.step(t, rng)
			}
			p.check(t, rng, "pinned")
		}
	}
	if truncated < 60 {
		t.Fatalf("only %d of 180 trials truncated anything; the corpus no longer exercises truncation", truncated)
	}
}

// TestScanViewMatchesComparator pins the truncated view to its definition:
// T is the (K+1)-th most similar row minimum under MoreSimilar, order is the
// comparator order from T's position on, below counts each row's
// candidates before it, and argMin/argMax are the rows' extremes.
func TestScanViewMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	for trial := 0; trial < 200; trial++ {
		k := []int{1, 3, 7}[trial%3]
		inst := oracleCorpus(rng, trial, k)
		v := inst.scanView(k)
		ref := sortedCandidatesRef(inst)
		n := inst.N()
		mins := make([]candRef, n)
		for i := range mins {
			lo, hi := 0, 0
			for j := 1; j < inst.M(i); j++ {
				if inst.MoreSimilar(i, lo, i, j) {
					lo = j
				}
				if inst.MoreSimilar(i, j, i, hi) {
					hi = j
				}
			}
			if int(v.argMin[i]) != lo || int(v.argMax[i]) != hi {
				t.Fatalf("trial %d row %d: extremes (%d,%d), want (%d,%d)", trial, i, v.argMin[i], v.argMax[i], lo, hi)
			}
			mins[i] = candRef{int32(i), int32(lo)}
		}
		cut := 0
		if n > k {
			sort.Slice(mins, func(x, y int) bool {
				a, b := mins[x], mins[y]
				return inst.MoreSimilar(int(a.row), int(a.cand), int(b.row), int(b.cand))
			})
			cut = slices.Index(ref, mins[k])
		}
		if !slices.Equal(v.order, ref[cut:]) {
			t.Fatalf("trial %d (k=%d n=%d): kept order differs from the comparator order after T", trial, k, n)
		}
		below := make([]int32, n)
		for _, c := range ref[:cut] {
			below[c.row]++
		}
		if !slices.Equal(v.below, below) {
			t.Fatalf("trial %d: below %v, want %v", trial, v.below, below)
		}
	}
}

// relevantRowsRef is RelevantRows as it was before the build precomputed the
// row extremes: an O(NM) pass for each row's worst and best valid candidate,
// then a full sort for the bound.
func relevantRowsRef(e *Engine, k int) []bool {
	n := e.N()
	rel := make([]bool, n)
	if n <= k {
		for i := range rel {
			rel[i] = true
		}
		return rel
	}
	worst := make([]float64, n)
	best := make([]float64, n)
	for i := 0; i < n; i++ {
		if ch := e.Pin(i); ch >= 0 {
			worst[i] = boundSim(e.inst.Row(i)[ch])
			best[i] = worst[i]
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range e.inst.Row(i) {
			s = boundSim(s)
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		worst[i] = lo
		best[i] = hi
	}
	sorted := append([]float64(nil), worst...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for i := 0; i < n; i++ {
		rel[i] = best[i] >= sorted[k]
	}
	return rel
}

// TestRelevantRowsMatchesSortReference checks the extremes-and-selection
// RelevantRows against the full-pass, full-sort implementation it replaced,
// on the oracle corpus under random pins.
func TestRelevantRowsMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1603))
	for trial := 0; trial < 200; trial++ {
		k := []int{1, 3, 7}[trial%3]
		e := NewTruncatedEngineFromInstance(oracleCorpus(rng, trial, k), k)
		for s := 0; s < 8; s++ {
			for kq := 1; kq <= k; kq++ {
				if got, want := e.RelevantRows(kq), relevantRowsRef(e, kq); !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d K=%d: mask %v, reference %v", trial, s, kq, got, want)
				}
			}
			applyRandomPinOp(rng, e)
		}
	}
}

func TestSelectNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1604))
	for trial := 0; trial < 500; trial++ {
		s := make([]float64, 1+rng.Intn(40))
		for i := range s {
			s[i] = float64(rng.Intn(1 + trial%7)) // heavy ties, down to all equal
		}
		want := slices.Clone(s)
		slices.Sort(want)
		n := rng.Intn(len(s))
		if got := selectNth(s, n, func(a, b float64) bool { return a < b }); got != want[n] {
			t.Fatalf("trial %d: selectNth(%d) = %v, sorted %v", trial, n, got, want)
		}
	}
}

func TestKthLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1909))
	for trial := 0; trial < 500; trial++ {
		s := make([]float64, 1+rng.Intn(40))
		for i := range s {
			s[i] = float64(rng.Intn(1 + trial%7)) // heavy ties, down to all equal
			if rng.Intn(8) == 0 {
				s[i] = math.Inf(-1 + 2*rng.Intn(2))
			}
		}
		want := slices.Clone(s)
		slices.Sort(want)
		k := rng.Intn(len(s))
		if got := kthLargest(s, k); got != want[len(want)-1-k] {
			t.Fatalf("trial %d: kthLargest(%d) = %v, sorted %v", trial, k, got, want)
		}
	}
}

// TestTruncatedEngineGuardsK checks a truncated engine refuses every query
// mode for a K larger than the one it was truncated for, and still serves
// smaller ones; N ≤ K builds no truncation at all.
func TestTruncatedEngineGuardsK(t *testing.T) {
	inst := randomInstance(rand.New(rand.NewSource(1605)), 12, 4, 2)
	tr := NewTruncatedEngineFromInstance(inst, 3)
	if _, err := tr.NewScratch(4); err == nil {
		t.Fatal("NewScratch(4) on an engine truncated for K=3 succeeded")
	}
	if _, err := NewScratchPool(tr, 4); err == nil {
		t.Fatal("NewScratchPool(K=4) on an engine truncated for K=3 succeeded")
	}
	pool4, err := NewScratchPool(NewEngineFromInstance(inst), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRetained(tr, 4, false, pool4); err == nil {
		t.Fatal("NewRetained(K=4) on an engine truncated for K=3 succeeded")
	}
	if _, err := tr.CheckMM(4, -1, -1); err == nil {
		t.Fatal("CheckMM(K=4) on an engine truncated for K=3 succeeded")
	}
	for k := 1; k <= 3; k++ {
		if _, err := tr.NewScratch(k); err != nil {
			t.Fatalf("NewScratch(%d): %v", k, err)
		}
		pool, err := NewScratchPool(tr, k)
		if err != nil {
			t.Fatalf("NewScratchPool(%d): %v", k, err)
		}
		if _, err := NewRetained(tr, k, false, pool); err != nil {
			t.Fatalf("NewRetained(%d): %v", k, err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Counts with a K=5 scratch on an engine truncated for K=3 did not panic")
			}
		}()
		tr.Counts(NewEngineFromInstance(inst).MustScratch(5), -1, -1)
	}()
	full := NewTruncatedEngineFromInstance(inst, inst.N())
	if len(full.order) != inst.TotalCandidates() {
		t.Fatalf("N ≤ K truncated %d of %d candidates", inst.TotalCandidates()-len(full.order), inst.TotalCandidates())
	}
	if _, err := full.NewScratch(inst.N()); err != nil {
		t.Fatalf("N ≤ K engine refused K=N: %v", err)
	}
}

// TestTruncatedEngineOnSupremeShape checks the truncation on the serving
// benchmark's shape: a small fraction of candidates kept, fewer bytes
// reported, and the same answers as the untruncated engine.
func TestTruncatedEngineOnSupremeShape(t *testing.T) {
	d, _ := supremeShaped(1606)
	_, p := supremeShaped(1607)
	inst := InstanceFor(d, knn.NegEuclidean{}, p)
	ref := NewEngineFromInstance(inst)
	tr := NewTruncatedEngineFromInstance(inst, 3)
	if kept, total := len(tr.order), len(ref.order); kept*10 > total {
		t.Fatalf("truncation kept %d of %d candidates, want under 10%%", kept, total)
	}
	if got, full := tr.ApproxBytes(), ref.ApproxBytes(); got >= full {
		t.Fatalf("truncated engine reports %d bytes, untruncated %d", got, full)
	}
	pair := pairEngines(t, ref, tr, 3)
	rng := rand.New(rand.NewSource(1608))
	pair.check(t, rng, "supreme unpinned")
	for s := 0; s < 3; s++ {
		pair.step(t, rng)
		pair.check(t, rng, "supreme pinned")
	}
}

// maxFuzzPinOps bounds the pin operations one fuzz input decodes: the
// truncation fuzz targets check every query after each, so an input grown
// to a few KB would otherwise cost hundreds of full checks. Bytes past the
// bound are ignored. Every committed seed decodes fewer operations (at most
// 55), so each still runs whole.
const maxFuzzPinOps = 64

// FuzzTruncatedEngine decodes an instance, a K and a pin sequence of up to
// maxFuzzPinOps operations from the input and checks every query of the
// truncated engine against the untruncated one with == after each pin
// operation, and both engines' HypothesisCounts of every unpinned row, and
// HypothesisGroup over those rows split into groups at fuzz-chosen
// boundaries, against the walk reference by bits.
func FuzzTruncatedEngine(f *testing.F) {
	f.Add([]byte{1, 0, 5, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{3, 1, 0, 0x84, 0x90, 0xa0, 0x01, 0x02, 0x03, 0x10, 0x20, 0x33})
	// Grid ties over two labels (K = 3) and three (K = 5), with pins,
	// unpins and resets between the hypothesis checks.
	f.Add([]byte{0x02, 0x00, 0x0e, 0x03, 0x5d, 0x85, 0x95, 0x96, 0x84, 0x02, 0x06, 0x97, 0x01, 0x85, 0x03, 0xe3, 0x8f, 0x01, 0x88, 0x85, 0x02, 0x9c, 0x94, 0x81, 0x05, 0x02, 0x23, 0x87, 0x84, 0x8f, 0x02, 0x88, 0x88, 0x01, 0x84, 0x01, 0xa6, 0x95, 0x84, 0x03, 0x84, 0x0c, 0x87, 0x84, 0x94, 0x04, 0x75, 0x89, 0x8f, 0x8a, 0x85, 0x8d, 0x02, 0x7f, 0x00, 0x8e, 0x8e, 0x03, 0x2d, 0x8a, 0x8c, 0x92, 0x8c, 0x01, 0x90, 0x89, 0x97, 0x00, 0x08, 0x08, 0x00, 0xd6, 0x8c, 0x02, 0x88, 0x95, 0x8a, 0x00, 0x03, 0x09, 0x82, 0x87, 0x90, 0x92, 0x01, 0xe4, 0x81, 0x82, 0x00, 0x07, 0x00, 0x0f, 0x00, 0x05, 0x02, 0x09, 0x35, 0x04, 0x05, 0x38, 0x01, 0x10, 0x04, 0x02, 0xfe, 0x02, 0x09, 0x82, 0x03, 0x0e, 0xeb, 0x03, 0x0c, 0xd2})
	f.Add([]byte{0x04, 0x01, 0x09, 0x01, 0xae, 0x90, 0x84, 0x03, 0xae, 0x87, 0x84, 0x89, 0x0a, 0x04, 0x79, 0x07, 0x86, 0x93, 0x8f, 0x8e, 0x01, 0x17, 0x02, 0x97, 0x01, 0x06, 0x89, 0x93, 0x04, 0x7a, 0x04, 0x8f, 0x80, 0x94, 0x89, 0x01, 0xba, 0x90, 0x82, 0x00, 0xb7, 0x8e, 0x02, 0xe5, 0x8d, 0x83, 0x80, 0x02, 0x23, 0x8b, 0x0b, 0x93, 0x01, 0xb6, 0x83, 0x90, 0x01, 0x81, 0x96, 0x88, 0x04, 0xe5, 0x85, 0x92, 0x93, 0x82, 0x80, 0x01, 0xf8, 0x0c, 0x91, 0x03, 0x03, 0xb3, 0x00, 0x09, 0x03, 0x0a, 0x39, 0x02, 0x0a, 0x5b, 0x03, 0x09, 0x74, 0x02, 0x03, 0xaf, 0x01, 0x09, 0x02, 0x03, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		k := 1 + next()%7
		numLabels := 2 + next()%2
		n := k + next()%20
		sims := make([][]float64, n)
		labels := make([]int, n)
		for i := range sims {
			m := 1 + next()%5
			labels[i] = next() % numLabels
			sims[i] = make([]float64, m)
			for j := range sims[i] {
				if b := next(); b&0x80 != 0 {
					sims[i][j] = float64(int8(b<<1)) / 16 // small grid: many exact ties
				} else {
					sims[i][j] = oracleSpecials[b%len(oracleSpecials)]
				}
			}
		}
		inst, err := NewInstance(sims, labels, numLabels)
		if err != nil {
			t.Skip(err)
		}
		p := newTruncPair(t, inst, k)
		rng := rand.New(rand.NewSource(int64(len(data))))
		walk := p.ref.MustScratch(k)
		cov := groupCoverage{groupsByK: map[int]int{}}
		splits := rand.New(rand.NewSource(int64(len(data)) + 1)) // the group leg's own draws
		checkHyp := func(what string) {
			for _, e := range []*Engine{p.ref, p.tr} {
				sc := p.rsc
				if e == p.tr {
					sc = p.tsc
				}
				for row := 0; row < e.N(); row++ {
					if e.Pin(row) >= 0 {
						continue
					}
					if diff := sameHypBits(e.HypothesisCounts(sc, row), walkHypothesisCounts(e, walk, row)); diff != "" {
						t.Fatalf("%s: HypothesisCounts row %d (truncated %v): %s", what, row, e == p.tr, diff)
					}
				}
				checkGroups(t, splits, e, sc, walk, &cov, what)
			}
		}
		p.check(t, rng, "unpinned")
		checkHyp("unpinned")
		for ops := 0; len(data) > 0 && ops < maxFuzzPinOps; ops++ {
			switch op, row := next(), next()%n; op % 8 {
			case 0:
				pinAll(-1, -1, p.ref, p.tr)
			case 1:
				pinAll(row, -1, p.ref, p.tr)
			default:
				pinAll(row, next()%inst.M(row), p.ref, p.tr)
			}
			p.check(t, rng, "pinned")
			checkHyp(fmt.Sprintf("after pin op %d", ops))
		}
	})
}
