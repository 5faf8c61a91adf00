package main

// The daemon workload: service.New behind its real Server.Handler() on
// loopback, over a memory tier smaller than the pass's distinct cells on
// top of a disk tier, so some cell-store hits come from disk. A closed
// loop of at most nproc clients runs a seed-generated job stream that
// mixes simulate, multicore, l3, fieldmc and montecarlo jobs at small
// budgets. 34 of its 48 jobs are hits: 21 exact repeats of an earlier job
// (job-cache hits) and 13 jobs whose every cell a sweep produced
// (cell-store hits, e.g. a multicore point after the multicore sweep).
// Hits set the median and misses the tail. It is the only workload that
// touches HTTP, the scheduler and the cell store, and the only one that
// runs coherence (multicore) and three-level stacks (l3).
//
// Clients wait for a queued job on its server-sent event stream
// (GET /jobs/{id}/events) rather than polling. The handler re-checks a
// job every 200 ms, so a miss completes, as its client sees it, on one
// of those checks; see NOTES.md.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cppc/internal/cellstore"
	"cppc/internal/experiments"
	"cppc/internal/service"
)

// Job-stream shape. Every stream holds the same 48 jobs: the 14 fresh
// jobs of freshJobs, the 13 jobs whose cells their multi-cell jobs cover,
// and 21 repeats. A pass therefore does the same work at every seed; the
// seed orders the jobs, picks what each repeat repeats, and sets the
// simulation seeds.
const (
	streamLen = 48
	// freshOpening fresh jobs open the stream; after that, the middle
	// slot of each block of freshBlock is fresh. The slots are the same
	// at every seed, so the misses, which each wait one event-stream
	// re-check, fall the same way on the two clients.
	freshOpening = 6
	freshBlock   = 5
	// settleMisses is how many fresh jobs must follow a job before later
	// jobs may reuse its work. Every fresh job finishes within one
	// event-stream re-check, so with two clients the job has finished by
	// then, and a reuse is a hit whatever the interleaving.
	settleMisses = 3
	// memoryTierCells bounds the memory tier below a pass's distinct
	// cells, so some cell-store hits come from disk.
	memoryTierCells = 8
	// parallelism is both the service's worker count and the number of
	// closed-loop clients, before clamping to the host's CPUs.
	parallelism = 2
)

// Small budgets keep every fresh job well inside one 200 ms event-stream
// re-check.
var (
	simBudget   = service.JobSpec{Warmup: 20_000, Measure: 60_000}
	multiBudget = service.JobSpec{Warmup: 2_000, Measure: 5_000, Bench: "gzip"}
	l3Budget    = service.JobSpec{Warmup: 10_000, Measure: 30_000}
)

const campaignJobTrials = 2

// jobPlan is one slot of the job stream. The spec's Seed is set per pass.
type jobPlan struct {
	spec     service.JobSpec
	repeatOf int  // index of the earlier job this one repeats exactly, or -1
	fresh    bool // computes cells no earlier job computed
}

// freshJobs returns the stream's fresh jobs. chains pairs a single-cell
// job with the multi-cell job of its kind that overlaps it and covers
// the kind's other single-cell jobs; others are independent.
func freshJobs() (chains [][2]service.JobSpec, others []service.JobSpec) {
	multi := func(s service.JobSpec) service.JobSpec {
		s.Warmup, s.Measure, s.Bench = multiBudget.Warmup, multiBudget.Measure, multiBudget.Bench
		return s
	}
	l3 := func(s service.JobSpec) service.JobSpec {
		s.Warmup, s.Measure = l3Budget.Warmup, l3Budget.Measure
		return s
	}
	chains = [][2]service.JobSpec{
		{multi(service.JobSpec{Kind: service.KindMulticore, Cores: 4, SharedFrac: 0.3}),
			multi(service.JobSpec{Kind: service.KindMulticore, Sweep: true})},
		{l3(service.JobSpec{Kind: service.KindL3, Bench: "mcf"}), l3(service.JobSpec{Kind: service.KindL3, Sweep: true})},
		{{Kind: service.KindMonteCarlo, Scheme: "cppc", Trials: campaignJobTrials},
			{Kind: service.KindMonteCarlo, Trials: campaignJobTrials}},
	}
	for _, sim := range [][2]string{{"mcf", "secded"}, {"vortex", "cppc"}, {"crafty", "parity-1d"}, {"swim", "parity-2d"}} {
		others = append(others, service.JobSpec{Kind: service.KindSimulate, Bench: sim[0], Scheme: sim[1],
			Warmup: simBudget.Warmup, Measure: simBudget.Measure})
	}
	for _, f := range [][4]string{
		{"secded", "bank", "stuck", "x4"}, {"cppc", "row", "intermittent", "x1"},
		{"parity-1d", "word", "transient", "x1"}, {"cppc-2pair", "col", "intermittent", "x4"},
	} {
		others = append(others, service.JobSpec{Kind: service.KindFieldMC, Scheme: f[0], Trials: campaignJobTrials,
			Footprint: f[1], Lifetime: f[2], Rate: f[3]})
	}
	return chains, others
}

// coveredJobs returns the single-cell jobs whose cells the chains'
// multi-cell jobs compute and the chains' single-cell jobs do not.
func coveredJobs() []service.JobSpec {
	var out []service.JobSpec
	for _, pt := range experiments.Section7Points() {
		if pt.Cores != 4 || pt.SharedFrac != 0.3 {
			out = append(out, service.JobSpec{Kind: service.KindMulticore, Cores: pt.Cores, SharedFrac: pt.SharedFrac,
				Bench: multiBudget.Bench, Warmup: multiBudget.Warmup, Measure: multiBudget.Measure})
		}
	}
	for _, b := range experiments.L3Benches() {
		if b != "mcf" {
			out = append(out, service.JobSpec{Kind: service.KindL3, Bench: b, Warmup: l3Budget.Warmup, Measure: l3Budget.Measure})
		}
	}
	return append(out, service.JobSpec{Kind: service.KindMonteCarlo, Scheme: "parity-1d", Trials: campaignJobTrials})
}

// cellKeys names the cells a job computes, mirroring the service's
// planner for the kinds the stream uses.
func cellKeys(s service.JobSpec) []string {
	switch s.Kind {
	case service.KindMulticore:
		if !s.Sweep {
			return []string{fmt.Sprintf("multicore/%d/%g", s.Cores, s.SharedFrac)}
		}
		var keys []string
		for _, pt := range experiments.Section7Points() {
			keys = append(keys, fmt.Sprintf("multicore/%d/%g", pt.Cores, pt.SharedFrac))
		}
		return keys
	case service.KindL3:
		if !s.Sweep {
			return []string{"l3/" + s.Bench}
		}
		var keys []string
		for _, b := range experiments.L3Benches() {
			keys = append(keys, "l3/"+b)
		}
		return keys
	case service.KindMonteCarlo:
		if s.Scheme != "" {
			return []string{"montecarlo/" + s.Scheme}
		}
		var keys []string
		for _, sch := range experiments.MonteCarloSchemes() {
			keys = append(keys, "montecarlo/"+sch)
		}
		return keys
	case service.KindFieldMC:
		return []string{fmt.Sprintf("fieldmc/%s/%s/%s/%s", s.Scheme, s.Footprint, s.Lifetime, s.Rate)}
	}
	return []string{fmt.Sprintf("%s/%s/%s", s.Kind, s.Bench, s.Scheme)}
}

// freshOrder orders the fresh jobs: the chains' single-cell jobs, two
// independent jobs, the chains' multi-cell jobs in the same order, then
// the rest. Each single-cell job is thus settled before the multi-cell
// job that shares its cell is submitted.
func freshOrder(rng *rand.Rand) []service.JobSpec {
	chains, others := freshJobs()
	rng.Shuffle(len(chains), func(i, j int) { chains[i], chains[j] = chains[j], chains[i] })
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	var out []service.JobSpec
	for _, c := range chains {
		out = append(out, c[0])
	}
	out = append(out, others[:2]...)
	for _, c := range chains {
		out = append(out, c[1])
	}
	return append(out, others[2:]...)
}

// jobStream generates the workload's job stream from its seed. Reuses —
// repeats and covered jobs — only refer to settled fresh jobs, so whether
// a job hits never depends on how the clients interleave.
func jobStream(seed int64) []jobPlan {
	rng := rand.New(rand.NewSource(seed))
	fresh := freshOrder(rng)
	covered := coveredJobs()
	rng.Shuffle(len(covered), func(i, j int) { covered[i], covered[j] = covered[j], covered[i] })

	// Which slots are fresh.
	isFresh := make([]bool, streamLen)
	for i := 0; i < freshOpening; i++ {
		isFresh[i] = true
	}
	for k := 0; freshOpening+k*freshBlock < streamLen && freshOpening+k < len(fresh); k++ {
		isFresh[freshOpening+k*freshBlock+freshBlock/2] = true
	}

	var (
		stream   []jobPlan
		freshAt  []int               // stream indices of the fresh jobs so far
		nSettled int                 // freshAt[:nSettled] are settled
		produced = map[string]bool{} // cells of the settled jobs
	)
	coveredKeys := make([][]string, len(covered))
	for i, c := range covered {
		coveredKeys[i] = cellKeys(c)
	}
	ready := func(keys []string) bool {
		for _, k := range keys {
			if !produced[k] {
				return false
			}
		}
		return true
	}
	reuseLeft := streamLen - len(fresh)
	for slot := 0; slot < streamLen; slot++ {
		if isFresh[slot] {
			freshAt = append(freshAt, slot)
			stream = append(stream, jobPlan{spec: fresh[0], repeatOf: -1, fresh: true})
			fresh = fresh[1:]
			for ; nSettled < len(freshAt)-settleMisses; nSettled++ {
				for _, k := range cellKeys(stream[freshAt[nSettled]].spec) {
					produced[k] = true
				}
			}
			continue
		}
		// A ready covered job with probability covered-left over
		// reuse-slots-left (always, once they are equal), else a repeat.
		c := -1
		for i, keys := range coveredKeys {
			if ready(keys) {
				c = i
				break
			}
		}
		take := c >= 0 && (len(covered) >= reuseLeft || rng.Intn(reuseLeft) < len(covered))
		reuseLeft--
		if take {
			stream = append(stream, jobPlan{spec: covered[c], repeatOf: -1})
			covered = append(covered[:c], covered[c+1:]...)
			coveredKeys = append(coveredKeys[:c], coveredKeys[c+1:]...)
			continue
		}
		j := freshAt[rng.Intn(nSettled)]
		stream = append(stream, jobPlan{spec: stream[j].spec, repeatOf: j})
	}
	return stream
}

// daemon holds the running service stack a run measures.
type daemon struct {
	seed   int64
	dir    string // where the stacks' disk tiers live
	stream []jobPlan
	plain  *stack
	traced *stack // built on the first traced pass
	acc    layerSums
}

// storesDir is where the disk tiers live: inside the build directory of
// the checkout the benchmark runs in.
const storesDir = ".bench_build/stores"

func newDaemon(seed int64) (bench, error) { return openDaemon(storesDir, seed) }

func openDaemon(dir string, seed int64) (*daemon, error) {
	d := &daemon{seed: seed, dir: dir, stream: jobStream(seed)}
	var err error
	d.plain, err = newStack(dir, false)
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() error {
	err := d.plain.close()
	if d.traced != nil {
		err = errors.Join(err, d.traced.close())
	}
	return err
}

func (d *daemon) layers() map[string]float64 { return d.acc.mean() }

// stack is one daemon: cell store, service, HTTP server and client.
// Traced stacks carry timing wrappers on the store tiers, the handler and
// the cell executor.
type stack struct {
	dir    string
	svc    *service.Service
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	disk   *lazyDisk
	tr     *daemonTrace // nil on the untraced stack
}

// stackSeq numbers the stacks of this process, for their directories.
var stackSeq atomic.Int64

// newStack starts a daemon whose disk tier is a fresh directory under
// base. It makes no filesystem call itself: the directory is created on
// the tier's first use.
func newStack(base string, traced bool) (*stack, error) {
	dir := filepath.Join(base, fmt.Sprintf("daemon-%d-%d", os.Getpid(), stackSeq.Add(1)))
	disk := &lazyDisk{dir: dir}
	st := &stack{dir: dir, disk: disk}
	var memTier, diskTier cellstore.Store = cellstore.NewMemory(memoryTierCells), disk
	if traced {
		st.tr = &daemonTrace{}
		memTier = &timedStore{Store: memTier, st: &st.tr.tiers[0]}
		diskTier = &timedStore{Store: diskTier, st: &st.tr.tiers[1]}
	}
	var store cellstore.Store = cellstore.NewTiered(memTier, diskTier)
	if traced {
		store = &timedStore{Store: store, st: &st.tr.outer}
	}
	st.svc = service.New(service.Config{Workers: workers(parallelism), Store: store})
	var h http.Handler = service.NewServer(st.svc).Handler()
	if traced {
		st.svc.SetCoordinator(localCoordinator{st.tr})
		h = st.tr.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = st.svc.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	return st, nil
}

// close stops the server, drains the service, and removes the store.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	st.client.CloseIdleConnections()
	err = errors.Join(err, st.svc.Shutdown(ctx))
	return errors.Join(err, os.RemoveAll(st.dir))
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	latMs     float64
	result    []byte // canonical result bytes, elapsed_ms removed
	hit       bool
	queueWait float64 // s, Started − Submitted
	exec      float64 // s, Finished − Started
	err       error
}

func (d *daemon) pass(ctx context.Context, p int, traced bool) (passResult, error) {
	st := d.plain
	if traced {
		if d.traced == nil {
			var err error
			if d.traced, err = newStack(d.dir, true); err != nil {
				return passResult{}, err
			}
		}
		st = d.traced
		st.tr.reset()
	}
	seed := passSeed(d.seed, p)
	out := make([]jobOutcome, len(d.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers(parallelism); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(d.stream) {
					return
				}
				spec := d.stream[i].spec
				spec.Seed = seed
				out[i] = st.runJob(ctx, spec)
			}
		}()
	}
	wg.Wait()
	if _, err := st.disk.open(); err != nil {
		return passResult{}, err
	}

	var r passResult
	h := sha256.New()
	kindLat := map[string][]float64{}
	var hits int
	var queueWait, exec float64
	for i, o := range out {
		r.items++
		r.lat = append(r.lat, o.latMs)
		kindLat[d.stream[i].spec.Kind] = append(kindLat[d.stream[i].spec.Kind], o.latMs)
		if o.err != nil {
			r.failed++
			r.notes = append(r.notes, fmt.Sprintf("job %d (%s): %v", i, d.stream[i].spec.Kind, o.err))
			continue
		}
		if j := d.stream[i].repeatOf; j >= 0 && !bytes.Equal(o.result, out[j].result) {
			r.failed++
			r.notes = append(r.notes, fmt.Sprintf("job %d repeats job %d but its result differs", i, j))
		}
		if o.hit {
			hits++
		}
		queueWait += o.queueWait
		exec += o.exec
		fmt.Fprintf(h, "%d %s\n", i, o.result)
	}
	r.work = float64(len(out))
	r.digest = hex.EncodeToString(h.Sum(nil))
	if traced {
		m := st.tr.metrics()
		m["service.job_hit_ratio"] = ratio(hits, len(out))
		m["service.queue_wait_s"] = queueWait
		m["service.exec_s"] = exec
		for k, v := range kindLat {
			m["job."+k+".p50_ms"] = median(v)
		}
		d.acc.add(m)
	}
	return r, nil
}

// jobStatus is the part of a job snapshot the client reads.
type jobStatus struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	CacheHit  bool       `json:"cache_hit"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
}

// runJob submits one job and waits for its result: at once on a cache
// hit, otherwise on the job's event stream.
func (st *stack) runJob(ctx context.Context, spec service.JobSpec) (o jobOutcome) {
	t0 := time.Now()
	defer func() { o.latMs = float64(time.Since(t0).Nanoseconds()) / 1e6 }()
	body, err := json.Marshal(spec)
	if err != nil {
		return jobOutcome{err: err}
	}
	var job jobStatus
	if err := st.do(ctx, http.MethodPost, "/jobs", body, &job); err != nil {
		return jobOutcome{err: err}
	}
	if job.State != string(service.StateDone) {
		if job, err = st.await(ctx, job.ID); err != nil {
			return jobOutcome{err: err}
		}
	}
	if job.State != string(service.StateDone) {
		return jobOutcome{err: fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)}
	}
	var res map[string]any
	if err := st.do(ctx, http.MethodGet, "/jobs/"+job.ID+"/result", nil, &res); err != nil {
		return jobOutcome{err: err}
	}
	delete(res, "elapsed_ms") // host time, not a simulated output
	o.result, o.err = json.Marshal(res)
	o.hit = job.CacheHit
	if job.Started != nil && job.Finished != nil {
		o.queueWait = job.Started.Sub(job.Submitted).Seconds()
		o.exec = job.Finished.Sub(*job.Started).Seconds()
	}
	return o
}

// do sends one request and decodes a 2xx JSON reply into v.
func (st *stack) do(ctx context.Context, method, path string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, st.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// await reads the job's server-sent events until it reaches a terminal
// state, and returns that last snapshot.
func (st *stack) await(ctx context.Context, id string) (jobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.url+"/jobs/"+id+"/events", nil)
	if err != nil {
		return jobStatus{}, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, fmt.Errorf("events for %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var job jobStatus
		if err := json.Unmarshal([]byte(data), &job); err != nil {
			return jobStatus{}, fmt.Errorf("events for %s: %w", id, err)
		}
		switch service.State(job.State) {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			return job, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobStatus{}, fmt.Errorf("events for %s: %w", id, err)
	}
	return jobStatus{}, fmt.Errorf("events for %s ended before the job did", id)
}

// daemonTrace accumulates the traced stack's layer timings. Requests and
// workers run concurrently, so every field is atomic.
type daemonTrace struct {
	httpNs, httpReqs atomic.Int64
	cellNs, cellsRun atomic.Int64
	tiers            [2]storeStats // memory, disk
	outer            storeStats    // the tiered store the service sees
}

type storeStats struct {
	getNs, gets, hits, putNs, puts atomic.Int64
}

func (t *daemonTrace) reset() {
	for _, a := range []*atomic.Int64{&t.httpNs, &t.httpReqs, &t.cellNs, &t.cellsRun} {
		a.Store(0)
	}
	for _, s := range []*storeStats{&t.tiers[0], &t.tiers[1], &t.outer} {
		for _, a := range []*atomic.Int64{&s.getNs, &s.gets, &s.hits, &s.putNs, &s.puts} {
			a.Store(0)
		}
	}
}

// middleware counts every request and times all but event streams, whose
// duration is the job's, not the handler's.
func (t *daemonTrace) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.httpReqs.Add(1)
		if strings.HasSuffix(r.URL.Path, "/events") {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t.httpNs.Add(int64(time.Since(t0)))
	})
}

// metrics reads the traced stack's per-layer metrics for one pass.
// The HTTP layer's self time is its handlers' time minus the store
// lookups Submit makes inside them; the workers' pre-execution lookups —
// one per executed cell — are subtracted with them, a small
// overcorrection.
func (t *daemonTrace) metrics() map[string]float64 {
	s := func(a *atomic.Int64) float64 { return float64(a.Load()) / 1e9 }
	n := func(a *atomic.Int64) float64 { return float64(a.Load()) }
	m := map[string]float64{
		"http.self_s":            s(&t.httpNs) - s(&t.outer.getNs),
		"http.requests":          n(&t.httpReqs),
		"service.cell_exec_s":    s(&t.cellNs),
		"service.cells_executed": n(&t.cellsRun),
		"cellstore.hit_ratio":    ratio(int(t.outer.hits.Load()), int(t.outer.gets.Load())),
	}
	for i, tier := range []string{"memory", "disk"} {
		st := &t.tiers[i]
		p := "cellstore." + tier + "."
		m[p+"get_s"], m[p+"gets"], m[p+"hits"] = s(&st.getNs), n(&st.gets), n(&st.hits)
		m[p+"put_s"], m[p+"puts"] = s(&st.putNs), n(&st.puts)
	}
	return m
}

// timedStore times a cellstore.Store's Get and Put.
type timedStore struct {
	cellstore.Store
	st *storeStats
}

func (s *timedStore) Get(hash string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.Store.Get(hash)
	s.st.getNs.Add(int64(time.Since(t0)))
	s.st.gets.Add(1)
	if ok {
		s.st.hits.Add(1)
	}
	return data, ok
}

func (s *timedStore) Put(hash string, data []byte) {
	t0 := time.Now()
	s.Store.Put(hash, data)
	s.st.putNs.Add(int64(time.Since(t0)))
	s.st.puts.Add(1)
}

// localCoordinator is a pass-through service.Coordinator: it runs every
// cell locally, as a daemon without a fleet does, and times it.
type localCoordinator struct{ t *daemonTrace }

func (c localCoordinator) RunCell(ctx context.Context, hash string, local func(context.Context) ([]byte, error)) ([]byte, error) {
	t0 := time.Now()
	data, err := local(ctx)
	c.t.cellNs.Add(int64(time.Since(t0)))
	c.t.cellsRun.Add(1)
	return data, err
}

func (c localCoordinator) Stats() map[string]int64 { return nil }

// lazyDisk is the disk tier, created on its first use rather than at
// set-up. Creating a directory costs whatever the host's disk allows at
// that moment, from tens to hundreds of microseconds, which would swamp
// the set-up time it sat in. A creation error fails the pass.
type lazyDisk struct {
	dir  string
	once sync.Once
	disk *cellstore.Disk
	err  error
}

func (l *lazyDisk) open() (*cellstore.Disk, error) {
	l.once.Do(func() { l.disk, l.err = cellstore.NewDisk(l.dir, 0) })
	return l.disk, l.err
}

func (l *lazyDisk) Get(hash string) ([]byte, bool) {
	d, err := l.open()
	if err != nil {
		return nil, false
	}
	return d.Get(hash)
}

func (l *lazyDisk) Put(hash string, data []byte) {
	if d, err := l.open(); err == nil {
		d.Put(hash, data)
	}
}

func (l *lazyDisk) Stats() []cellstore.Stats {
	if d, err := l.open(); err == nil {
		return d.Stats()
	}
	return nil
}

func (l *lazyDisk) Close() error { return nil }
