package fault

import (
	"context"
	"fmt"

	"cppc/internal/cache"
	"cppc/internal/geometry"
)

// The FaultModel seam. The original campaigns modelled every fault the
// same way: flip bits once, probe once — a transient SEU. The DDR4
// field study and HARP (PAPERS.md) show fielded parts are dominated by
// permanent and intermittent faults with row/column/bank-correlated
// footprints, so a fault here is a *footprint* (where the bits land on
// the physical array) crossed with a *lifetime* (what the cells do
// afterwards):
//
//	Transient:    the classic SEU — stored bits flip once.
//	Intermittent: the cells flicker — every time the array is consulted
//	              they flip again with probability Reassert.
//	StuckAt:      the cells are dead — they read back a fixed value no
//	              matter what correction or refetch wrote over them.
//
// Persistent lifetimes are armed on the cache's fault plane
// (cache/plane.go), which the protect controller consults on every
// read path. That is what separates the schemes: a correction that
// succeeds once is not enough — the plane re-asserts the fault on the
// next access, so only schemes that correct on every consult keep a
// workload running over a stuck cell.

// Lifetime classifies what a fault's cells do after the initial upset.
type Lifetime int

const (
	// Transient: flip once; the stored value is wrong until repaired.
	Transient Lifetime = iota
	// Intermittent: flip again on each array consult with probability
	// Model.Reassert.
	Intermittent
	// StuckAt: the cells read back a fixed value on every consult.
	StuckAt
)

func (l Lifetime) String() string {
	switch l {
	case Transient:
		return "transient"
	case Intermittent:
		return "intermittent"
	case StuckAt:
		return "stuck"
	}
	return "unknown"
}

// ParseLifetime is the inverse of Lifetime.String.
func ParseLifetime(s string) (Lifetime, error) {
	switch s {
	case "transient":
		return Transient, nil
	case "intermittent":
		return Intermittent, nil
	case "stuck":
		return StuckAt, nil
	}
	return 0, fmt.Errorf("fault: unknown lifetime %q", s)
}

// Footprint classifies where a fault's bits land on the physical array,
// following the field-study correlation classes.
type Footprint int

const (
	// FootWord: a single bit — the uncorrelated baseline.
	FootWord Footprint = iota
	// FootRow: a horizontal burst along one physical row (a failing
	// wordline); the default span is the whole row.
	FootRow
	// FootColumn: a vertical run of single bits down one bit column (a
	// failing bitline); the default span is the whole column.
	FootColumn
	// FootBank: a square region — bank-correlated damage; the default
	// span is 8x8, the largest square the paper's spatial study covers.
	FootBank
)

func (f Footprint) String() string {
	switch f {
	case FootWord:
		return "word"
	case FootRow:
		return "row"
	case FootColumn:
		return "col"
	case FootBank:
		return "bank"
	}
	return "unknown"
}

// ParseFootprint is the inverse of Footprint.String.
func ParseFootprint(s string) (Footprint, error) {
	switch s {
	case "word":
		return FootWord, nil
	case "row":
		return FootRow, nil
	case "col":
		return FootColumn, nil
	case "bank":
		return FootBank, nil
	}
	return 0, fmt.Errorf("fault: unknown footprint %q", s)
}

// Model is one fault class: a spatial footprint plus a lifetime.
type Model struct {
	Foot Footprint
	Life Lifetime

	// Reassert is the per-consult flip probability of Intermittent
	// faults; ignored for the other lifetimes. Zero selects the default.
	Reassert float64

	// Span overrides the footprint extent: bits along the row for
	// FootRow, rows for FootColumn, the square side for FootBank.
	// Zero selects the class default. Ignored for FootWord.
	Span int
}

// DefaultReassert is the intermittent flip probability when
// Model.Reassert is zero: high enough that a flickering cell asserts
// several times over a campaign's exercise window.
const DefaultReassert = 0.2

func (m Model) String() string {
	if m.Life == Intermittent {
		return fmt.Sprintf("%s/%s(p=%g)", m.Foot, m.Life, m.reassert())
	}
	return fmt.Sprintf("%s/%s", m.Foot, m.Life)
}

func (m Model) reassert() float64 {
	if m.Reassert > 0 {
		return m.Reassert
	}
	return DefaultReassert
}

// shape is the footprint's extent on a concrete array geometry.
func (m Model) shape(geom geometry.Layout) (h, w int) {
	switch m.Foot {
	case FootRow:
		w = geom.RowBits()
		if m.Span > 0 && m.Span < w {
			w = m.Span
		}
		return 1, w
	case FootColumn:
		h = geom.Rows()
		if m.Span > 0 && m.Span < h {
			h = m.Span
		}
		return h, 1
	case FootBank:
		side := 8
		if m.Span > 0 {
			side = m.Span
		}
		if side > geom.Rows() {
			side = geom.Rows()
		}
		if side > geom.RowBits() {
			side = geom.RowBits()
		}
		return side, side
	default: // FootWord
		return 1, 1
	}
}

// InjectModel places one instance of the model at a random anchor.
// Transient instances flip stored bits and are done; Intermittent and
// StuckAt instances additionally arm the cache's fault plane so the
// fault re-asserts on later array consults (arming the plane lazily on
// first use). The return value counts the bits flipped by the initial
// assert — persistent instances are live even when it is zero.
func (c *Campaign) InjectModel(m Model) int {
	geom := c.Ct.C.Geom
	h, w := m.shape(geom)
	f := geometry.SpatialFault{
		Row:    c.rng.Intn(geom.Rows() - h + 1),
		BitCol: c.rng.Intn(geom.RowBits() - w + 1),
		Height: h,
		Width:  w,
	}
	if m.Life == Transient {
		return c.InjectSpatialAt(f)
	}
	if !c.Ct.C.PlaneArmed() {
		// Decouple the plane's coin from the workload stream so arming
		// never perturbs the populate/exercise draws.
		c.Ct.C.ArmPlane(int64(c.rng.Uint64()))
	}
	flipped := 0
	for _, fl := range geom.Flips(f) {
		switch m.Life {
		case StuckAt:
			// Each masked bit sticks at a random level (stuck-at-0 or
			// stuck-at-1 per bit), as in the field studies: the fault
			// manifests only when the stored value disagrees.
			stuck := c.rng.Uint64() & fl.Mask
			c.Ct.C.AddStuckFault(fl.Set, fl.Way, fl.Word, fl.Mask, stuck)
			if ln := c.Ct.C.Line(fl.Set, fl.Way); ln.Valid {
				old := ln.Data[fl.Word]
				ln.Data[fl.Word] = old&^fl.Mask | stuck
				flipped += popcount((old ^ ln.Data[fl.Word]) & fl.Mask)
			}
		case Intermittent:
			c.Ct.C.AddIntermittentFault(fl.Set, fl.Way, fl.Word, fl.Mask, m.reassert())
			// The injection event itself is the first assert.
			if c.Ct.C.Line(fl.Set, fl.Way).Valid {
				c.Ct.C.FlipBits(fl.Set, fl.Way, fl.Word, fl.Mask)
				flipped += popcount(fl.Mask)
			}
		}
	}
	return flipped
}

// exerciseAccesses is the checked-workload window each model trial runs
// after (and interleaved with) injection — long enough for persistent
// faults to re-assert many times and for stores to land on stuck cells.
const exerciseAccesses = 4000

// Exercise runs n checked workload accesses over footprintBytes,
// injecting one instance of the model at `faults` evenly spaced points.
// Loads are compared against the golden shadow as they complete, so a
// silently wrong value returned mid-workload is an SDC even if a later
// refetch repairs the stored copy. It reports the first failure, or
// (Corrected, false) if the window survives — the caller still probes.
func (c *Campaign) Exercise(m Model, faults, n, footprintBytes int) (Outcome, bool) {
	words := footprintBytes / 8
	injected := 0
	for i := 0; i < n; i++ {
		for injected < faults && i >= (injected+1)*n/(faults+1) {
			c.InjectModel(m)
			injected++
		}
		c.now++
		addr := uint64(c.rng.Intn(words)) * 8
		if c.rng.Intn(2) == 0 {
			v := c.rng.Uint64()
			c.shadow[addr] = v
			c.Ct.Store(addr, v, c.now)
		} else {
			res := c.Ct.Load(addr, c.now)
			if !c.Ct.Halted && res.Value != c.expected(addr) {
				return SDC, true
			}
		}
		if c.Ct.Halted {
			return DUE, true
		}
	}
	return Corrected, false
}

// RunModelTrialsCtx runs `trials` independent lifetimes of a fault
// model over the ccfg layout: populate, then a checked exercise window
// with `faults` injections, then a full probe sweep. Cancellation is
// polled between trials, and trials fan out up to the context's worker
// hint (par.WithWorkers / experiments.WithCellWorkers). Trial i runs on
// stream seed+i whatever the worker count, so the counts are
// bit-identical to the sequential loop's.
func RunModelTrialsCtx(ctx context.Context, ccfg cache.Config, mk SchemeFactory, m Model, faults, trials int, seed int64) (Counts, error) {
	return countTrials(ctx, trials, func(_ context.Context, a *Arena, i int) (Outcome, error) {
		camp := a.newCampaign(ccfg, mk, seed+int64(i))
		defer a.endTrial()
		camp.Populate(4000, 8192)
		outcome, failed := camp.Exercise(m, faults, exerciseAccesses, 8192)
		if !failed {
			outcome = camp.Probe()
		}
		return outcome, nil
	})
}
