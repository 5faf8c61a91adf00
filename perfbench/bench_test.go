package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"cppc/internal/cache"
	"cppc/internal/experiments"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

// An item's floor is its fastest time over the passes; passes that timed
// a different number of items are an error.
func TestFloorsTakeEachItemsFastestPass(t *testing.T) {
	fl, err := floors([][]float64{{5, 9, 1}, {4, 12, 1.5}, {6, 8, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{4, 8, 0.5}; !reflect.DeepEqual(fl, want) {
		t.Fatalf("floors = %v, want %v", fl, want)
	}
	one := []float64{3, 2}
	if fl, err := floors([][]float64{one}); err != nil || !reflect.DeepEqual(fl, one) {
		t.Fatalf("floors of one pass = %v, %v; want %v", fl, err, one)
	}
	if one[0] != 3 {
		t.Fatal("floors modified its input")
	}
	if _, err := floors([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("passes of different lengths gave no error")
	}
	if _, err := floors(nil); err == nil {
		t.Fatal("no passes gave no error")
	}
}

func TestSharesSumToOne(t *testing.T) {
	for _, self := range []map[string]float64{
		{"trace": 0.13, "cpu": 0.24, "protect.l1": 0.22, "protect.l2": 0.1, "scheme.l1": 0.27, "scheme.l2": 0.22, "memory": 0.025},
		{"fault": 0.42, "scheme.campaign": 0.93},
		{"only": 3},
	} {
		if sh := shares(self); !sharesSumToOne(sh) {
			t.Errorf("shares of %v sum to %v", self, sumShares(sh))
		}
	}
	if sh := shares(map[string]float64{"a": 0, "b": 0}); sumShares(sh) != 0 {
		t.Errorf("shares of nothing measured = %v, want zeros", sh)
	}
}

// The uniproc layer metrics of a real traced cell: every share is
// present and they add up to 1.
func TestUniprocTracedSharesSumToOne(t *testing.T) {
	ly := newUniLayers()
	prof, _ := trace.ProfileByName("vortex")
	b := experiments.Budget{Warmup: 2000, Measure: 6000, Seed: 3}
	if _, err := ly.simulate(context.Background(), prof, experiments.SECDED, b); err != nil {
		t.Fatal(err)
	}
	sh := map[string]float64{}
	for k, v := range ly.metrics() {
		if len(k) > 6 && k[:6] == "share." {
			sh[k] = v
		}
	}
	if len(sh) != 7 || !sharesSumToOne(sh) {
		t.Fatalf("uniproc shares %v: %d layers summing to %v, want 7 summing to 1", sh, len(sh), sumShares(sh))
	}
}

func TestJobStreamDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(jobStream(7), jobStream(7)) {
		t.Fatal("two streams from seed 7 differ")
	}
	if reflect.DeepEqual(jobStream(7), jobStream(8)) {
		t.Fatal("seeds 7 and 8 give the same stream")
	}
	chains, others := freshJobs()
	nFresh, nCovered := 2*len(chains)+len(others), len(coveredJobs())
	for seed := int64(1); seed <= 300; seed++ {
		a := jobStream(seed)
		if len(a) != streamLen {
			t.Fatalf("seed %d: stream has %d jobs, want %d", seed, len(a), streamLen)
		}
		fresh, covered, repeats := 0, 0, 0
		kinds := map[string]bool{}
		for i, p := range a {
			kinds[p.spec.Kind] = true
			switch {
			case p.fresh:
				fresh++
			case p.repeatOf >= 0:
				repeats++
				if p.repeatOf >= i || !a[p.repeatOf].fresh || !reflect.DeepEqual(p.spec, a[p.repeatOf].spec) {
					t.Fatalf("seed %d: job %d claims to repeat job %d: %+v vs %+v", seed, i, p.repeatOf, p.spec, a[p.repeatOf].spec)
				}
			default:
				covered++
			}
		}
		// Every seed runs the same jobs, so a pass does the same work.
		if fresh != nFresh || covered != nCovered || len(kinds) != 5 {
			t.Fatalf("seed %d: %d fresh, %d covered, %d repeats over kinds %v; want %d fresh, %d covered, all five kinds",
				seed, fresh, covered, repeats, kinds, nFresh, nCovered)
		}
	}
	// Hits must set the median with a margin.
	if share := float64(streamLen-nFresh) / streamLen; share < 0.6 {
		t.Fatalf("%d of %d jobs are hits; the median needs at least 60%%", streamLen-nFresh, streamLen)
	}
}

// A wrapper must expose exactly the optional interfaces of what it
// wraps: the simulator type-asserts them, and a dropped one changes the
// code path or, for EventResetter, the result.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	type opt struct{ lv, er bool }
	of := func(s protect.Scheme) opt {
		_, lv := s.(protect.LineVerifier)
		_, er := s.(protect.EventResetter)
		return opt{lv, er}
	}
	seen := map[opt]bool{}
	for _, cfg := range []cache.Config{cache.L1DConfig(), cache.L2Config()} {
		for _, id := range uniprocSchemes {
			mkL1, mkL2 := levelSchemes(id)
			for _, mk := range []func(*cache.Cache) protect.Scheme{mkL1, mkL2} {
				c := cache.New(cfg)
				s := mk(c)
				if got, want := of(wrapScheme(s, newClock(1))), of(s); got != want {
					t.Errorf("%s on %s: wrapped exposes %+v, scheme exposes %+v", s.Name(), cfg.Name, got, want)
				}
				seen[of(s)] = true
				c.Release()
			}
		}
	}
	// The variants the schemes do not exercise, through a stand-in.
	for _, o := range []opt{{false, false}, {true, false}, {false, true}, {true, true}} {
		s := fakeScheme(o.lv, o.er)
		if got := of(wrapScheme(s, newClock(1))); got != o {
			t.Errorf("wrapping a scheme with %+v exposes %+v", o, got)
		}
	}
	if len(seen) < 2 {
		t.Errorf("the evaluated schemes cover only %v; the check needs both kinds", seen)
	}

	prof, _ := trace.ProfileByName("gzip")
	batch := prof.NewMemoGen(1)
	if w, _ := wrapSource(batch, newClock(1)); !isBatch(w) {
		t.Error("wrapping a trace.BatchSource hides NextBatch")
	}
	if w, _ := wrapSource(plainSource{batch}, newClock(1)); isBatch(w) {
		t.Error("wrapping a plain trace.Source claims NextBatch")
	}
}

func isBatch(s trace.Source) bool { _, ok := s.(trace.BatchSource); return ok }

// plainSource hides everything but Next.
type plainSource struct{ s trace.Source }

func (p plainSource) Next() trace.Instr { return p.s.Next() }

// fakeScheme builds a stand-in scheme exposing the chosen optional
// interfaces over parity-1d.
func fakeScheme(lv, er bool) protect.Scheme {
	c := cache.New(cache.L1DConfig())
	base := protect.NewParity1D(c, 8)
	type plain struct{ protect.Scheme }
	type withLV struct {
		protect.Scheme
		protect.LineVerifier
	}
	type withER struct {
		protect.Scheme
		protect.EventResetter
	}
	type withBoth struct {
		protect.Scheme
		protect.LineVerifier
		protect.EventResetter
	}
	verifier := lineVerifierFunc(func(int, int) bool { return false })
	resetter := resetterFunc(func() {})
	switch {
	case lv && er:
		return withBoth{plain{base}, verifier, resetter}
	case lv:
		return withLV{plain{base}, verifier}
	case er:
		return withER{plain{base}, resetter}
	}
	return plain{base}
}

type lineVerifierFunc func(set, way int) bool

func (f lineVerifierFunc) VerifyLineClean(set, way int) bool { return f(set, way) }

type resetterFunc func()

func (f resetterFunc) ResetEvents() { f() }

// A traced uniproc cell reproduces experiments.SimulateCtx bit for bit
// for every scheme; this is the check a dropped EventResetter fails.
func TestTracedCellMatchesUntraced(t *testing.T) {
	prof, _ := trace.ProfileByName("mcf")
	b := experiments.Budget{Warmup: 3000, Measure: 9000, Seed: 5}
	ly := newUniLayers()
	for _, id := range uniprocSchemes {
		want, err := experiments.SimulateCtx(context.Background(), prof, id, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ly.simulate(context.Background(), prof, id, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced run %+v differs from untraced %+v", id, got, want)
		}
	}
}

func TestCatalogCoversEveryWorkloadMetric(t *testing.T) {
	ly := newUniLayers()
	names := map[string]bool{}
	for _, c := range layerCatalog {
		if names[c.name] {
			t.Errorf("catalog lists %q twice", c.name)
		}
		names[c.name] = true
	}
	vals := ly.metrics()
	for k, v := range newCampLayers().metrics(1) {
		vals[k] = v
	}
	for k, v := range (&daemonTrace{}).metrics() {
		vals[k] = v
	}
	if _, err := catalogMetrics(vals); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json at the repository root must describe what the program
// prints: the end-to-end list and the per-layer catalog, in order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != e.name || got.Unit != e.unit {
			t.Errorf("end_to_end[%d] = %s %s, the program prints %s %s", i, got.Name, got.Unit, e.name, e.unit)
		}
	}
	if len(spec.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalog %d", len(spec.PerLayer), len(layerCatalog))
	}
	for i, c := range layerCatalog {
		if got := spec.PerLayer[i]; got.Name != c.name || got.Unit != c.unit || got.Better != c.better {
			t.Errorf("per_layer[%d] = %+v, the catalog has %+v", i, got, c)
		}
	}
}

// sumShares adds shares up in a fixed order, so the check is reproducible.
func sumShares(sh map[string]float64) float64 {
	keys := make([]string, 0, len(sh))
	for k := range sh {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += sh[k]
	}
	return s
}

func sharesSumToOne(sh map[string]float64) bool { return math.Abs(sumShares(sh)-1) < 1e-9 }

// One untraced and one traced daemon pass over the real HTTP stack: both
// reproduce the committed default-seed digest, with no failed job, and
// the traced stack's counters see the traffic. Under -race this also
// checks the clients and the timing wrappers.
func TestDaemonPassesMatchDigest(t *testing.T) {
	raw, err := os.ReadFile("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	d, err := openDaemon(t.TempDir(), defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	}()
	for _, traced := range []bool{false, true} {
		r, err := d.pass(context.Background(), 0, traced)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.digest != want["daemon"] {
			t.Fatalf("traced=%v: %d failed %v, digest %s, want %s", traced, r.failed, r.notes, r.digest, want["daemon"])
		}
	}
	m := d.layers()
	if m["http.requests"] == 0 || m["service.cells_executed"] == 0 || m["cellstore.disk.hits"] == 0 {
		t.Fatalf("traced stack saw no traffic: %v", m)
	}
}
