package main

// Timing wrappers for the traced runs. Each one sits on a public seam of
// the simulator (trace.Source, cpu.MemoryPort, cache.Backing,
// protect.Scheme), counts every call and times a random sample of them,
// so the traced run costs a small multiple of the untraced one instead
// of paying a clock read (~70 ns on a virtual machine) on every access.
//
// The code under the seams type-asserts optional interfaces:
// trace.BatchSource (cpu.Core.RunCtx), protect.LineVerifier
// (protect.NewController) and protect.EventResetter (cpu.System.ResetStats).
// A wrapper that hid one of them would change which code path runs, or —
// for EventResetter — what the run computes, so each wrapper comes in one
// variant per combination and wrapScheme/wrapSource pick the variant that
// exposes exactly what the wrapped value exposes.

import (
	"time"

	"cppc/internal/cache"
	"cppc/internal/cpu"
	"cppc/internal/protect"
	"cppc/internal/trace"
)

var epoch = time.Now()

// sampleEvery is the sampling stride of the per-access wrappers: one call
// in sampleEvery, on average, is timed.
const sampleEvery = 16

// clock accumulates one layer's calls and a 1-in-every sample of their
// durations. Simulation layers run on one goroutine, so a clock is not
// safe for concurrent use.
type clock struct {
	every   uint64 // sampling stride, a power of two
	rng     uint64 // xorshift state: random, not periodic, sampling
	calls   uint64
	sampled uint64
	ns      time.Duration
}

func newClock(every uint64) *clock {
	return &clock{every: every, rng: 0x9e3779b97f4a7c15}
}

// begin counts a call and, if the call is sampled, returns its start
// time; otherwise -1.
func (c *clock) begin() time.Duration {
	c.calls++
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	if c.rng&(c.every-1) != 0 {
		return -1
	}
	return time.Since(epoch)
}

// end closes a call opened by begin.
func (c *clock) end(t0 time.Duration) {
	if t0 >= 0 {
		c.sampled++
		c.ns += time.Since(epoch) - t0
	}
}

// seconds estimates the total time spent inside the layer's calls,
// children included: the sampled time, less the clock reads each sample
// measured, scaled up to every call.
func (c *clock) seconds() float64 {
	if c.sampled == 0 {
		return 0
	}
	ns := float64(c.ns) - float64(c.sampled)*calib.readBias
	return ns / 1e9 * float64(c.calls) / float64(c.sampled)
}

// overhead estimates what the layer's instrumentation added to its
// caller's time: a sampled call pays two clock reads, every call the
// counting.
func (c *clock) overhead() float64 {
	return (float64(c.sampled)*calib.spanCost + float64(c.calls-c.sampled)*calib.callCost) / 1e9
}

// cost is a layer's footprint in its caller's span: its time plus its
// instrumentation.
func (c *clock) cost() float64 { return c.seconds() + c.overhead() }

// calibration holds the instrumentation costs, in ns, that self times are
// corrected by.
type calibration struct {
	readBias float64 // what a sampled span around nothing measures
	spanCost float64 // what a sampled begin/end pair costs its caller
	callCost float64 // what an unsampled begin/end pair costs its caller
}

// calib is set once, by a traced run before its first pass. Its zero
// value corrects nothing, which the tests rely on.
var calib calibration

// calibrate measures the instrumentation costs on this host: each is the
// median over a few rounds of many empty spans.
func calibrate() calibration {
	const n = 100_000
	var bias, span, call []float64
	for r := 0; r < 5; r++ {
		c := newClock(1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.end(c.begin())
		}
		span = append(span, float64(time.Since(t0).Nanoseconds())/n)
		bias = append(bias, float64(c.ns.Nanoseconds())/n)
		c = newClock(1 << 62)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			c.end(c.begin())
		}
		call = append(call, float64(time.Since(t0).Nanoseconds())/n)
	}
	return calibration{readBias: median(bias), spanCost: median(span), callCost: median(call)}
}

// timedSource wraps a trace.Source and counts the instructions drawn.
type timedSource struct {
	inner  trace.Source
	clk    *clock
	instrs uint64
}

func (s *timedSource) Next() trace.Instr {
	t0 := s.clk.begin()
	in := s.inner.Next()
	s.clk.end(t0)
	s.instrs++
	return in
}

// timedBatchSource additionally forwards trace.BatchSource.
type timedBatchSource struct {
	*timedSource
	batch trace.BatchSource
}

func (s timedBatchSource) NextBatch(dst []trace.Instr) int {
	t0 := s.clk.begin()
	n := s.batch.NextBatch(dst)
	s.clk.end(t0)
	s.instrs += uint64(n)
	return n
}

// wrapSource times src; the result is a trace.BatchSource exactly when
// src is one.
func wrapSource(src trace.Source, clk *clock) (trace.Source, *timedSource) {
	base := &timedSource{inner: src, clk: clk}
	if bs, ok := src.(trace.BatchSource); ok {
		return timedBatchSource{timedSource: base, batch: bs}, base
	}
	return base, base
}

// timedPort wraps the core's cpu.MemoryPort: the protect.l1 layer.
type timedPort struct {
	inner                cpu.MemoryPort
	clk                  *clock
	loads, stores, plans uint64
}

func (p *timedPort) LoadInto(addr, now uint64, res *protect.AccessResult) {
	p.loads++
	t0 := p.clk.begin()
	p.inner.LoadInto(addr, now, res)
	p.clk.end(t0)
}

func (p *timedPort) StoreInto(addr, val, now uint64, res *protect.AccessResult) {
	p.stores++
	t0 := p.clk.begin()
	p.inner.StoreInto(addr, val, now, res)
	p.clk.end(t0)
}

func (p *timedPort) PlanStore(addr uint64) (bool, int) {
	p.plans++
	t0 := p.clk.begin()
	wait, words := p.inner.PlanStore(addr)
	p.clk.end(t0)
	return wait, words
}

func (p *timedPort) PlanLoadMiss(addr uint64) int {
	p.plans++
	t0 := p.clk.begin()
	n := p.inner.PlanLoadMiss(addr)
	p.clk.end(t0)
	return n
}

func (p *timedPort) HitLatency() int { return p.inner.HitLatency() }

func (p *timedPort) Halted() bool {
	t0 := p.clk.begin()
	h := p.inner.Halted()
	p.clk.end(t0)
	return h
}

// timedBacking wraps a cache.Backing hop: L1→L2 (protect.l2) or
// L2→memory (memory).
type timedBacking struct {
	inner               cache.Backing
	clk                 *clock
	fetches, writebacks uint64
}

func (b *timedBacking) FetchBlock(addr uint64, dst []uint64, now uint64) int {
	b.fetches++
	t0 := b.clk.begin()
	lat := b.inner.FetchBlock(addr, dst, now)
	b.clk.end(t0)
	return lat
}

func (b *timedBacking) WriteBackBlock(addr uint64, src []uint64, now uint64) {
	b.writebacks++
	t0 := b.clk.begin()
	b.inner.WriteBackBlock(addr, src, now)
	b.clk.end(t0)
}

// timedScheme wraps a protect.Scheme. The metadata methods are forwarded
// untimed; every hook the controller drives is counted and sampled.
type timedScheme struct {
	inner protect.Scheme
	clk   *clock
}

func (s *timedScheme) Kind() protect.Kind       { return s.inner.Kind() }
func (s *timedScheme) Name() string             { return s.inner.Name() }
func (s *timedScheme) CheckBitsPerGranule() int { return s.inner.CheckBitsPerGranule() }
func (s *timedScheme) BitlineFactor() float64   { return s.inner.BitlineFactor() }
func (s *timedScheme) FillNeedsOldLine() bool   { return s.inner.FillNeedsOldLine() }
func (s *timedScheme) verifyLineClean(set, way int) bool {
	t0 := s.clk.begin()
	ok := s.inner.(protect.LineVerifier).VerifyLineClean(set, way)
	s.clk.end(t0)
	return ok
}

func (s *timedScheme) OnFill(set, way int) {
	t0 := s.clk.begin()
	s.inner.OnFill(set, way)
	s.clk.end(t0)
}

func (s *timedScheme) VerifyGranule(set, way, g int, now uint64) (protect.FaultStatus, bool) {
	t0 := s.clk.begin()
	st, refetch := s.inner.VerifyGranule(set, way, g, now)
	s.clk.end(t0)
	return st, refetch
}

func (s *timedScheme) StoreNeedsOldData(set, way, g int) bool {
	t0 := s.clk.begin()
	need := s.inner.StoreNeedsOldData(set, way, g)
	s.clk.end(t0)
	return need
}

func (s *timedScheme) OnStore(set, way, g int, old []uint64, wasDirty, oldVerified bool, now uint64) {
	t0 := s.clk.begin()
	s.inner.OnStore(set, way, g, old, wasDirty, oldVerified, now)
	s.clk.end(t0)
}

func (s *timedScheme) OnEvict(set, way int, now uint64) {
	t0 := s.clk.begin()
	s.inner.OnEvict(set, way, now)
	s.clk.end(t0)
}

func (s *timedScheme) OnRefetchGranule(set, way, g int, old []uint64) {
	t0 := s.clk.begin()
	s.inner.OnRefetchGranule(set, way, g, old)
	s.clk.end(t0)
}

func (s *timedScheme) OnDowngrade(set, way int, now uint64) {
	t0 := s.clk.begin()
	s.inner.OnDowngrade(set, way, now)
	s.clk.end(t0)
}

// The optional-interface variants.
type (
	timedSchemeLV   struct{ *timedScheme }
	timedSchemeER   struct{ *timedScheme }
	timedSchemeLVER struct{ *timedScheme }
)

func (s timedSchemeLV) VerifyLineClean(set, way int) bool   { return s.verifyLineClean(set, way) }
func (s timedSchemeLVER) VerifyLineClean(set, way int) bool { return s.verifyLineClean(set, way) }
func (s timedSchemeER) ResetEvents()                        { s.inner.(protect.EventResetter).ResetEvents() }
func (s timedSchemeLVER) ResetEvents()                      { s.inner.(protect.EventResetter).ResetEvents() }

// wrapScheme times s; the result implements protect.LineVerifier and
// protect.EventResetter exactly when s does.
func wrapScheme(s protect.Scheme, clk *clock) protect.Scheme {
	base := &timedScheme{inner: s, clk: clk}
	_, lv := s.(protect.LineVerifier)
	_, er := s.(protect.EventResetter)
	switch {
	case lv && er:
		return timedSchemeLVER{base}
	case lv:
		return timedSchemeLV{base}
	case er:
		return timedSchemeER{base}
	}
	return base
}
