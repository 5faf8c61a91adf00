package cpu

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"cppc/internal/trace"
)

// DefaultQuantum is the lock-step scheduling quantum: how many
// instructions each core advances before the next core gets the machine.
// It matches the trace refill batch, and keeping it small bounds how far
// one core's view of the shared hierarchy can run ahead of another's.
const DefaultQuantum = 256

// PrivateMemory is an optional MemoryPort refinement. A port returning
// true promises that its mutable state (and everything reachable from
// it) is touched by exactly one core, so whole scheduling quanta for
// different cores can execute concurrently without observing each
// other. Ports that share state across cores — a coherence directory, a
// shared bus — must not implement it (or must return false): for those,
// the parallel cluster only moves trace generation off the execution
// goroutine and keeps all memory interactions in core order.
type PrivateMemory interface {
	PrivateHierarchy() bool
}

// PrivateHierarchy: a StackPort wraps one core's own level list.
func (p StackPort) PrivateHierarchy() bool { return true }

// Cluster drives N OoO cores in lock step, one trace stream per core.
// The cores share whatever hierarchy their MemoryPorts expose (for the
// Sec. 7 experiments, per-core views of a timed coherence.Multiprocessor);
// the round-robin order is fixed, so a run is deterministic for a given
// set of (port, source) pairs — with or without workers (SetWorkers).
type Cluster struct {
	Cores []*Core
	srcs  []trace.Source

	workers int
}

// NewCluster builds one core per (port, source) pair, all with the same
// pipeline configuration.
func NewCluster(cfg Config, ports []MemoryPort, srcs []trace.Source) (*Cluster, error) {
	if len(ports) == 0 || len(ports) != len(srcs) {
		return nil, errors.New("cpu: cluster needs exactly one trace source per memory port")
	}
	cl := &Cluster{srcs: srcs}
	for _, p := range ports {
		cl.Cores = append(cl.Cores, NewCoreWithPort(cfg, p))
	}
	return cl, nil
}

// SetWorkers bounds the goroutine fan-out of subsequent runs: up to n
// goroutines cooperate on each scheduling quantum. n <= 1 (the default)
// selects the serial path. Results are bit-identical for every n — the
// knob trades wall clock, never output — so callers may size it from
// transient facts (idle pool workers) without perturbing cached results.
func (cl *Cluster) SetWorkers(n int) { cl.workers = n }

// Release returns every core's scratch arena to the construction pool
// (see Core.Release). The cluster must not run afterwards.
func (cl *Cluster) Release() {
	for _, c := range cl.Cores {
		c.Release()
	}
}

// MulticoreResult aggregates a lock-step run.
type MulticoreResult struct {
	PerCore      []Result
	Instructions uint64  // summed across cores
	Cycles       uint64  // wall clock: max completion cycle over cores
	CPI          float64 // Cycles over instructions-per-core
	Halted       bool    // a DUE stopped some core (the cluster stops with it)
}

// privateHierarchy reports whether every core's port declares its
// hierarchy core-private (see PrivateMemory). Absence of the marker
// means shared — the conservative default.
func (cl *Cluster) privateHierarchy() bool {
	for _, c := range cl.Cores {
		p, ok := c.Mem.(PrivateMemory)
		if !ok || !p.PrivateHierarchy() {
			return false
		}
	}
	return true
}

// forEachCore runs fn(i) for every core index across at most workers
// goroutines (one of them the caller's) and waits for all of them — the
// per-quantum barrier.
func (cl *Cluster) forEachCore(workers int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(cl.Cores) {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// RunCtx runs n instructions on every core, advancing round-robin in
// quanta (quantum <= 0 selects DefaultQuantum). Cycle timestamps are
// absolute and carry across calls, so warm-up and measurement phases can
// be separate calls with the cycle delta taken by the caller. If any core
// halts on an unrecoverable fault the whole cluster stops.
//
// With SetWorkers(>= 2) the per-quantum core loop fans out across a
// bounded goroutine set with a deterministic barrier per quantum:
//
//   - every core's hierarchy private: whole quanta execute concurrently
//     (no core can observe another), and per-core results are merged in
//     core order at the barrier;
//   - shared hierarchy (coherence/bus): each core's quantum of trace is
//     drawn concurrently — the per-core generators are independent —
//     then the cores execute in core order, so every coherence and bus
//     interaction happens in exactly the serial path's order.
//
// Either way the output is bit-identical to the serial path.
func (cl *Cluster) RunCtx(ctx context.Context, n, quantum int) (MulticoreResult, error) {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	workers := cl.workers
	if workers > len(cl.Cores) {
		workers = len(cl.Cores)
	}
	if workers < 2 {
		return cl.runSerial(ctx, n, quantum)
	}
	return cl.runParallel(ctx, n, quantum, workers)
}

// runSerial is the workerless quantum loop — the reference path the
// parallel one is held bit-identical to, and the one that allocates
// nothing beyond the result.
func (cl *Cluster) runSerial(ctx context.Context, n, quantum int) (MulticoreResult, error) {
	res := MulticoreResult{PerCore: make([]Result, len(cl.Cores))}
	var err error
	remaining := n
outer:
	for remaining > 0 && !res.Halted {
		step := quantum
		if remaining < step {
			step = remaining
		}
		for i, c := range cl.Cores {
			r, rerr := c.RunCtx(ctx, cl.srcs[i], step)
			mergeCore(&res, i, r)
			if rerr != nil {
				err = rerr
				break outer
			}
		}
		remaining -= step
	}
	finalize(&res, len(cl.Cores))
	return res, err
}

// runParallel fans each quantum across the worker set (see RunCtx).
func (cl *Cluster) runParallel(ctx context.Context, n, quantum, workers int) (MulticoreResult, error) {
	private := cl.privateHierarchy()
	res := MulticoreResult{PerCore: make([]Result, len(cl.Cores))}
	var err error
	// Per-round scratch, reset entry-by-entry at the merge so a partial
	// round (an error stopped the core loop early) merges zeros for the
	// cores that did not run.
	rs := make([]Result, len(cl.Cores))
	errs := make([]error, len(cl.Cores))
	remaining := n
outer:
	for remaining > 0 && !res.Halted {
		step := quantum
		if remaining < step {
			step = remaining
		}
		if private {
			cl.forEachCore(workers, func(i int) {
				rs[i], errs[i] = cl.Cores[i].RunCtx(ctx, cl.srcs[i], step)
			})
		} else {
			cl.forEachCore(workers, func(i int) {
				cl.Cores[i].prefill(cl.srcs[i], step)
			})
			for i, c := range cl.Cores {
				rs[i], errs[i] = c.RunCtx(ctx, cl.srcs[i], step)
				if errs[i] != nil {
					break
				}
			}
		}
		// Merge barrier: per-core results land in core order regardless of
		// which goroutine produced them.
		for i := range cl.Cores {
			r, rerr := rs[i], errs[i]
			rs[i], errs[i] = Result{}, nil
			mergeCore(&res, i, r)
			if rerr != nil {
				err = rerr
				break outer
			}
		}
		remaining -= step
	}
	finalize(&res, len(cl.Cores))
	return res, err
}

// mergeCore folds one core's quantum result into the aggregate; called
// in core order on both paths.
func mergeCore(res *MulticoreResult, i int, r Result) {
	pc := &res.PerCore[i]
	pc.Instructions += r.Instructions
	if r.Cycles > pc.Cycles {
		pc.Cycles = r.Cycles
	}
	pc.Loads += r.Loads
	pc.Stores += r.Stores
	if r.Halted {
		pc.Halted = true
		res.Halted = true
	}
}

// finalize derives the per-core and aggregate CPI columns.
func finalize(res *MulticoreResult, cores int) {
	for i := range res.PerCore {
		pc := &res.PerCore[i]
		if pc.Instructions > 0 {
			pc.CPI = float64(pc.Cycles) / float64(pc.Instructions)
		}
		res.Instructions += pc.Instructions
		if pc.Cycles > res.Cycles {
			res.Cycles = pc.Cycles
		}
	}
	if perCore := res.Instructions / uint64(cores); perCore > 0 {
		res.CPI = float64(res.Cycles) / float64(perCore)
	}
}
