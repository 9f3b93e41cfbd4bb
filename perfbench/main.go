// Command perfbench is the repository's end-to-end benchmark. It launches
// the real cdwd and etlvirtd binaries over a shared store directory, drives
// one seeded workload through them from this single load-generator process,
// checks every output against an oracle, and prints the metrics as one JSON
// line. With -trace 1 it adds relays on the two TCP seams and replays the
// inner layers on the workload's inputs to report per-layer metrics.
//
//	perfbench -workload load_export -seed 1 -seconds 45 -trace 0 -bin DIR -work DIR
//	perfbench compare OLD NEW [BENCHMARK.json]
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // sample counts, printed ahead of the metrics
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: load_export, dirty_load, cdc_upsert or nightly_mix")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 45, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	bin := flag.String("bin", "", "directory holding the cdwd and etlvirtd binaries")
	work := flag.String("work", "", "scratch directory for stores and the span file")
	flag.Parse()
	if *bin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -bin and -work are required")
		os.Exit(2)
	}
	res, err := run(config{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, bin: *bin, work: *work})
	if res != nil {
		printHuman(res)
		line, _ := json.Marshal(res) // plain data, cannot fail
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string
	work     string
}

// run executes one benchmark invocation. A job that errors or fails its
// check ends the run: the result then reports correct=false with the failure
// counted, and run returns the error.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pass := func(traced bool, seconds time.Duration) (*measurement, error) {
		wl, err := newWorkload(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		return measure(cfg, wl, dir, traced, seconds)
	}
	if !cfg.traced {
		m, err := pass(false, cfg.seconds)
		if m == nil {
			return nil, err
		}
		return m.endToEnd(err), err
	}
	// Traced run: a quarter-length untraced pass on the same seed gives the
	// baseline for the tracing overhead, then the traced pass, then the
	// replays.
	base, err := pass(false, cfg.seconds/4)
	if err != nil {
		if base == nil {
			return nil, err
		}
		return base.endToEnd(err), err
	}
	m, err := pass(true, cfg.seconds)
	if m == nil {
		return nil, err
	}
	if err != nil {
		return m.endToEnd(err), err
	}
	res, err := m.perLayer(base, filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)))
	return res, err
}

// measurement is one pass: set-up, warm-up, and the measured window.
type measurement struct {
	cfg      config
	wl       workloadRunner
	setups   []time.Duration
	rec      recorder
	units    int
	virtCPU  time.Duration
	cdwCPU   time.Duration
	virtRSS  float64
	cdwRSS   float64
	exch     []exchange
	stmts    []cdwStmt
	failed   bool
	windowAt time.Time
}

// setupReps is how many times a pass launches the stack; setup_s is the
// median and the last stack carries the measurement.
const setupReps = 5

// measure runs one pass of wl: set-up, warm-up and the measured window.
func measure(cfg config, wl workloadRunner, dir string, traced bool, seconds time.Duration) (*measurement, error) {
	m := &measurement{cfg: cfg, wl: wl}
	var st *stack
	var err error
	for i := 0; i < setupReps; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("stack%d", i))
		start := time.Now()
		st, err = launch(cfg.bin, sub, traced)
		if err != nil {
			return nil, err
		}
		// Ready means a real legacy logon through etlvirtd succeeds and the
		// workload's schema and prefill are in place.
		s, err := dialSession(st.clientTo)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("first logon: %w", err)
		}
		s.close()
		if err := wl.setup(st); err != nil {
			st.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(start))
		if i < setupReps-1 {
			st.close()
			os.RemoveAll(sub)
		}
	}
	defer st.close()

	// Warm-up unit, untimed and unrecorded.
	if err = wl.unit(st, &recorder{}); err == nil {
		err = wl.check(st)
	}
	if err == nil {
		err = wl.reset(st)
	}
	if err != nil {
		m.failed = true
		return m, fmt.Errorf("warm-up: %w", err)
	}
	if traced {
		st.wire.take()
		st.cdwRelay.take()
	}

	sampler := startRSSSampler(st.virt.pid(), st.cdwd.pid())
	// timed runs f as part of the measured window: its wall clock, both
	// servers' CPU and their RSS samples count.
	timed := func(f func() error) error {
		v0, c0, err := cpuPair(st)
		if err != nil {
			return err
		}
		sampler.active.Store(true)
		start := time.Now()
		ferr := f()
		m.rec.unitWall += time.Since(start)
		sampler.active.Store(false)
		v1, c1, err := cpuPair(st)
		if err != nil {
			return err
		}
		m.virtCPU += v1 - v0
		m.cdwCPU += c1 - c0
		return ferr
	}
	m.windowAt = time.Now()
	for err == nil && (m.units == 0 || time.Since(m.windowAt) < seconds) {
		err = timed(func() error { return wl.unit(st, &m.rec) })
		m.units++
		if err == nil {
			err = wl.check(st)
		}
		if err == nil {
			err = wl.reset(st)
		}
	}
	if err == nil {
		err = timed(func() error { return wl.finish(st, &m.rec) })
	}
	virtRSS, cdwRSS, serr := sampler.stop()
	if err != nil {
		m.failed = true
		return m, err
	}
	if serr != nil {
		return nil, serr
	}
	m.virtRSS, m.cdwRSS = virtRSS, cdwRSS
	if traced {
		m.exch = st.wire.take()
		m.stmts = st.cdwRelay.take()
	}
	return m, nil
}

func cpuPair(st *stack) (virt, cdw time.Duration, err error) {
	if virt, err = procCPU(st.virt.pid()); err != nil {
		return 0, 0, err
	}
	cdw, err = procCPU(st.cdwd.pid())
	return virt, cdw, err
}

func (m *measurement) counts(runErr error) (attempted, failed int64) {
	attempted = m.rec.blocks
	if m.failed || runErr != nil {
		attempted++
		failed = 1
	}
	return max(attempted, 1), failed
}

// endToEnd assembles the end-to-end metrics of an untraced pass.
func (m *measurement) endToEnd(runErr error) *result {
	r := &m.rec
	attempted, failed := m.counts(runErr)
	moved := float64(r.ingestRows + r.exportRows)
	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	var rows float64
	for _, c := range r.commitMS {
		rows += c.w
	}
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		notes: []string{fmt.Sprintf("%d timed units, %d blocks; commit latency over %.0f rows in %d chunks or frames, %d commits",
			m.units, r.blocks, rows, len(r.commitMS), r.commitEvents)},
		Metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"ingest_rows_per_s":   {ratio(float64(r.ingestRows), r.ingestWall.Seconds()), "1/s"},
			"export_rows_per_s":   {ratio(float64(r.exportRows), r.exportWall.Seconds()), "1/s"},
			"jobs_per_s":          {ratio(float64(r.blocks), r.unitWall.Seconds()), "1/s"},
			"commit_p50_ms":       {weightedQuantile(r.commitMS, 0.50), "ms"},
			"commit_p90_ms":       {weightedQuantile(r.commitMS, 0.90), "ms"},
			"virt_cpu_us_per_row": {ratio(float64(m.virtCPU.Microseconds()), moved), "us"},
			"cdw_cpu_us_per_row":  {ratio(float64(m.cdwCPU.Microseconds()), moved), "us"},
			"virt_rss_mb":         {m.virtRSS, "MB"},
			"cdw_rss_mb":          {m.cdwRSS, "MB"},
		},
	}
}

// printHuman prints every metric by name with its unit, one per line, ahead
// of the JSON line.
func printHuman(r *result) {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("%-34s %14d\n%-34s %14d\n", "attempted", r.Attempted, "failed", r.Failed)
}
