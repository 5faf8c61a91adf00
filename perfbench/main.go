// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three fixed-work workloads in this process, checks that the
// simulated outputs are correct, and prints every metric by name with its
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload uniproc --seed 1 --seconds 10 --trace 0
//
// A workload's inputs derive from --seed alone. The fixed work set — one
// "pass" — is repeated until --seconds have elapsed. Every item of a pass
// (a cell or a job) recurs in every pass, and its fastest time over the
// passes is its floor; the latency metrics and, where items run one after
// another, the rate derive from the floors. With --trace 1 the run
// alternates untraced and traced passes over the same inputs and prints
// the per-layer metrics instead; see NOTES.md for what each workload and
// metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in digests.json.
const defaultSeed = 1

// minPasses is the fewest passes a run measures, whatever --seconds says.
const minPasses = 3

// endToEnd is every end-to-end metric an untraced run prints, with its
// unit; BENCHMARK.json's end_to_end list names the same metrics.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// passResult is what one pass over a workload's fixed work set produced.
type passResult struct {
	work   float64   // operations: simulated instructions, trials or jobs
	lat    []float64 // one host latency sample per item (cell or job), ms
	items  int       // items attempted
	failed int       // items that errored or failed a check
	digest string    // hash of every simulated output of the pass
	notes  []string  // check failures, printed before the result
}

// bench is one workload bound to its seed-generated inputs.
type bench interface {
	// pass runs the fixed work set once; traced passes feed the
	// per-layer accumulators. Pass p of a run always computes the same
	// outputs, traced or not.
	pass(ctx context.Context, p int, traced bool) (passResult, error)
	// layers returns the per-layer metrics of the traced passes so far,
	// as per-pass averages.
	layers() map[string]float64
	// close releases what setup acquired.
	close() error
}

// workload is one --workload: its setup and the names its end-to-end
// metrics also go by, printed alongside the generic ones.
type workload struct {
	setup     func(seed int64) (bench, error)
	rate      string  // ops_per_s under its own name
	rateScale float64 // ops_per_s → rate
	rateUnit  string
	item      string // what one latency sample times
	// concurrent is true when a pass's items overlap, so a pass does not
	// take the sum of its items' times: the rate is then the median over
	// passes of a pass's work over its host time. Otherwise it is a
	// pass's work over the sum of its items' floors.
	concurrent bool
}

var workloads = map[string]workload{
	"uniproc":  {newUniproc, "sim_minstr_per_s", 1e-6, "Minstr/s", "cell", false},
	"campaign": {newCampaign, "trials_per_s", 1, "1/s", "cell", false},
	"daemon":   {newDaemon, "jobs_per_s", 1, "1/s", "job", true},
}

func main() {
	workload := flag.String("workload", "uniproc", "uniproc, campaign or daemon")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 runs the traced passes and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*workload, *seconds, *traced)
		os.Exit(2)
	}
	if err := run(os.Stdout, *workload, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its report; it returns an error,
// after printing, when any check failed.
func run(out *os.File, name string, w workload, seed int64, budget time.Duration, traced bool) (err error) {
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "host:", fingerprint())

	b, dt, err := timedSetup(w, seed)
	if err != nil {
		return fmt.Errorf("%s setup: %w", name, err)
	}
	setupTimes := []float64{dt}
	defer func() {
		if cerr := b.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s teardown: %w", name, cerr)
		}
	}()

	ctx := context.Background()
	var (
		attempted, failed int
		walls, rates      []float64
		works, allocs     []float64
		overheads         []float64
		passLat           [][]float64 // each untraced pass's item times
	)
	check := func(p int, r passResult) {
		attempted += r.items
		failed += r.failed
		for _, n := range r.notes {
			fmt.Fprintf(out, "check failed: pass %d: %s\n", p, n)
		}
		if seed == defaultSeed && p == 0 {
			attempted++
			if want := digests[name]; r.digest != want {
				failed++
				fmt.Fprintf(out, "check failed: %s digest at seed %d is %s, want %s\n", name, seed, r.digest, want)
			}
		}
	}
	if traced {
		calib = calibrate()
		fmt.Fprintf(out, "instrumentation: clock read bias %.1f ns, sampled span %.1f ns, counted call %.1f ns\n",
			calib.readBias, calib.spanCost, calib.callCost)
	}
	deadline := time.Now().Add(budget)
	// A traced run interleaves three passes per round: an untraced pass
	// on fresh inputs, a traced pass on the next fresh inputs, and an
	// untraced replay of the traced pass's inputs whose outputs must match
	// bit for bit. Both timed passes see fresh inputs, so neither replays
	// trace streams the other generated.
	step := 1
	if traced {
		step = 2
	}
	for p := 0; p < minPasses*step || time.Now().Before(deadline); p += step {
		// A set-up takes tens of microseconds, so a burst of them at
		// start-up would time whatever the host was doing in that
		// moment. One more set-up before every pass, outside the pass's
		// timing, samples the host across the whole run instead.
		extra, dt, err := timedSetup(w, seed)
		if err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		setupTimes = append(setupTimes, dt)
		if err := extra.close(); err != nil {
			return fmt.Errorf("%s teardown: %w", name, err)
		}
		r, wall, alloc, err := timedPass(ctx, b, p, false)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", name, p, err)
		}
		check(p, r)
		walls = append(walls, wall)
		rates = append(rates, r.work/wall)
		works = append(works, r.work)
		allocs = append(allocs, alloc)
		passLat = append(passLat, r.lat)
		if !traced {
			continue
		}
		tr, twall, _, err := timedPass(ctx, b, p+1, true)
		if err != nil {
			return fmt.Errorf("%s traced pass %d: %w", name, p+1, err)
		}
		replay, _, _, err := timedPass(ctx, b, p+1, false)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", name, p+1, err)
		}
		check(p+1, replay)
		attempted++
		if tr.digest != replay.digest || tr.failed != replay.failed {
			failed++
			fmt.Fprintf(out, "check failed: traced pass %d digest %s differs from untraced %s\n", p+1, tr.digest, replay.digest)
		}
		overheads = append(overheads, twall/wall)
	}

	fmt.Fprintf(out, "workload %s seed %d: %d passes, median pass %.3f s, ops/s per pass %s\n",
		name, seed, len(walls), median(walls), spread(rates))
	fmt.Fprintf(out, "failed_ratio %g (%d of %d)\n", ratio(failed, attempted), failed, attempted)
	var ms []metric
	if traced {
		vals := b.layers()
		vals["trace_overhead"] = median(overheads)
		if ms, err = catalogMetrics(vals); err != nil {
			return err
		}
	} else {
		fl, err := floors(passLat)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var sum, tv float64
		for _, x := range fl {
			sum += x
			tv = math.Max(tv, x)
		}
		ops := median(works) / (sum / 1000)
		if w.concurrent {
			ops = median(rates)
		}
		fmt.Fprintf(out, "floors of %d %ss over %d passes: sum %.1f ms, median %.3f ms, slowest %.3f ms\n",
			len(fl), w.item, len(passLat), sum, median(fl), tv)
		fmt.Fprintf(out, "%s %v %s; %s_p50_ms %v; %s_tail_ms %v\n",
			w.rate, ops*w.rateScale, w.rateUnit, w.item, median(fl), w.item, tv)
		vals := map[string]float64{
			"ops_per_s":  ops,
			"p50_ms":     median(fl),
			"tail_ms":    tv,
			"setup_s":    median(setupTimes),
			"max_rss_mb": maxRSSMiB(),
			"alloc_mb":   median(allocs) / (1 << 20),
		}
		for _, e := range endToEnd {
			ms = append(ms, metric{e.name, vals[e.name], e.unit})
		}
	}
	for _, m := range ms {
		fmt.Fprintf(out, "%s %v %s\n", m.name, m.value, m.unit)
	}
	if err := printResult(out, failed == 0, attempted, failed, ms); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d checks failed", name, failed, attempted)
	}
	return nil
}

// timedSetup sets the workload up once and measures the host time it
// took.
func timedSetup(w workload, seed int64) (bench, float64, error) {
	t0 := time.Now()
	b, err := w.setup(seed)
	return b, time.Since(t0).Seconds(), err
}

// timedPass runs one pass and measures its host wall time (s) and Go
// heap bytes allocated.
func timedPass(ctx context.Context, b bench, p int, traced bool) (passResult, float64, float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	r, err := b.pass(ctx, p, traced)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return r, wall, float64(after.TotalAlloc - before.TotalAlloc), err
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printResult writes the final JSON line.
func printResult(out *os.File, correct bool, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loadDigests reads the committed default-seed output digests.
func loadDigests() (map[string]string, error) {
	raw, err := os.ReadFile(digestPath)
	if err != nil {
		return nil, fmt.Errorf("read digests: %w", err)
	}
	var d map[string]string
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", digestPath, err)
	}
	return d, nil
}

// digestPath is relative to the repository root, where the benchmark runs.
const digestPath = "perfbench/digests.json"

// fingerprint describes the host a result was measured on.
func fingerprint() string {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	clocksource := "unknown"
	if raw, err := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource"); err == nil {
		clocksource = strings.TrimSpace(string(raw))
	}
	_, err := os.Stat("/sys/bus/event_source/devices/cpu")
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s clocksource=%s time_now_ns=%.1f pmu=%t",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clocksource, timeNowCost(), err == nil)
}

// timeNowCost is the median cost of one time.Now call, in ns.
func timeNowCost() float64 {
	const n = 20000
	var samples []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Now()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(samples)
}

// workers clamps a parallel setting to the host's CPUs.
func workers(want int) int {
	if n := runtime.NumCPU(); want > n {
		return n
	}
	return want
}
