package trace

import (
	"sync"
	"testing"

	"cppc/internal/lfrng"
)

// TestMemoGenMatchesGen checks that a memoized reader produces exactly
// the plain generator's stream, across mixed batch sizes and many
// readers of the same stream.
func TestMemoGenMatchesGen(t *testing.T) {
	p, ok := ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	const n = 3 * memoGrowChunk
	ref := make([]Instr, n)
	p.NewGen(42).NextBatch(ref)

	for reader := 0; reader < 3; reader++ {
		m := p.NewMemoGen(42)
		got := make([]Instr, 0, n)
		buf := make([]Instr, 0)
		// Odd batch sizes exercise partial-chunk extension.
		for _, sz := range []int{1, 7, 256, 1000, memoGrowChunk, n} {
			if len(got)+sz > n {
				sz = n - len(got)
			}
			buf = append(buf[:0], make([]Instr, sz)...)
			if w := m.NextBatch(buf); w != sz {
				t.Fatalf("reader %d: NextBatch wrote %d, want %d", reader, w, sz)
			}
			got = append(got, buf...)
		}
		for len(got) < n {
			got = append(got, m.Next())
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("reader %d: instr %d = %+v, want %+v", reader, i, got[i], ref[i])
			}
		}
	}
}

// TestMemoGenForksPastCap drives a reader across the memoized-prefix
// cap and checks the forked tail continues the exact stream.
func TestMemoGenForksPastCap(t *testing.T) {
	p, ok := ProfileByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	const past = 2500
	ref := make([]Instr, memoMaxInstrs+past)
	p.NewGen(7).NextBatch(ref)

	m := p.NewMemoGen(7)
	got := make([]Instr, len(ref))
	// A batch straddling the cap boundary must split cleanly.
	for pos := 0; pos < len(got); {
		sz := 999
		if pos+sz > len(got) {
			sz = len(got) - pos
		}
		m.NextBatch(got[pos : pos+sz])
		pos += sz
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("instr %d = %+v, want %+v (cap %d)", i, got[i], ref[i], memoMaxInstrs)
		}
	}
}

// TestMemoGenConcurrentReaders extends one stream from many goroutines
// at once; run under -race this checks the snapshot discipline, and the
// content check that concurrent extension stays bit-exact.
func TestMemoGenConcurrentReaders(t *testing.T) {
	p, ok := ProfileByName("swim")
	if !ok {
		t.Fatal("swim profile missing")
	}
	const n = 2*memoGrowChunk + 123
	ref := make([]Instr, n)
	p.NewGen(11).NextBatch(ref)

	var wg sync.WaitGroup
	errs := make([]int, 8)
	for r := 0; r < len(errs); r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := p.NewMemoGen(11)
			got := make([]Instr, n)
			for pos := 0; pos < n; {
				sz := 300 + 37*r // readers advance at different strides
				if pos+sz > n {
					sz = n - pos
				}
				m.NextBatch(got[pos : pos+sz])
				pos += sz
			}
			errs[r] = -1
			for i := range ref {
				if got[i] != ref[i] {
					errs[r] = i
					return
				}
			}
		}()
	}
	wg.Wait()
	for r, e := range errs {
		if e != -1 {
			t.Fatalf("reader %d diverged at instr %d", r, e)
		}
	}
}

// TestCoreGenMemoMatchesStream pins the CoreGen rewiring: the memoized
// per-core stream with batch-applied relocation must equal the
// reference construction (a plain Gen drawn per instruction with the
// coin interleaved), for sharing fractions on both sides of the coin.
func TestCoreGenMemoMatchesStream(t *testing.T) {
	p, ok := ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	for _, frac := range []float64{0, 0.3, 1} {
		gens := p.NewCoreGens(3, frac, 5)
		stride := coreStride(p.WorkingSetBytes + p.StoreBytes)
		for i, g := range gens {
			s := int64(5) + int64(i)*0x9e3779b9
			base := p.NewGen(s)
			var coin lfrng.Rand
			coin.Seed(s ^ 0x5deece66d)

			const n = 700
			got := make([]Instr, n)
			g.NextBatch(got)
			for j := 0; j < n; j++ {
				want := base.Next()
				if want.Op == OpLoad || want.Op == OpStore {
					if coin.Float64() >= frac {
						want.Addr += uint64(i+1) * stride
					}
				}
				if got[j] != want {
					t.Fatalf("frac %v core %d instr %d = %+v, want %+v", frac, i, j, got[j], want)
				}
			}
		}
	}
}
