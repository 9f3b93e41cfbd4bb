package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"etlvirt/internal/wire"
)

// relayJob is one job reassembled from the wire relay's exchanges, with its
// phase ledger. Every interval is on the relay's clock.
type relayJob struct {
	kind        string // import, export or stream
	id          uint64
	start, end  time.Time
	acquisition time.Duration
	application time.Duration
	other       time.Duration
	cdwWait     time.Duration
	phases      []span // phase intervals, for the span file
}

func (j *relayJob) wall() time.Duration { return j.end.Sub(j.start) }

// span is one interval of the span file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	from   time.Time
	to     time.Time
}

// interval is a half-open time range.
type interval struct{ from, to time.Time }

// busy returns the total length of the union of the intervals clipped to
// [from, to).
func busy(ivs []interval, from, to time.Time) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := iv.from, iv.to
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if a.Before(b) {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from.Before(clipped[j].from) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.from.After(cur.to):
			if iv.to.After(cur.to) {
				cur.to = iv.to
			}
		default:
			total += cur.to.Sub(cur.from)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.to.Sub(cur.from)
	}
	return total
}

func stmtIntervals(stmts []cdwStmt) []interval {
	out := make([]interval, len(stmts))
	for i, s := range stmts {
		out[i] = interval{s.start, s.end}
	}
	return out
}

// buildLedger groups exchanges into jobs and splits each job's wall clock
// into acquisition, application and other. Import: acquisition runs from the
// first chunk to AcquireDone and application is the ApplyDML round trip.
// Export: application is the BeginExport round trip (the query runs there)
// and acquisition the chunk fetches. Stream: application is CDW busy time
// inside the stream and acquisition the frame round trips net of CDW time; a
// stream that idles while other jobs run is split into one job per stretch.
// Other is the rest, so the three sum to the relay's job wall clock;
// cdw_wait is the time at least one CDW statement was in flight.
func buildLedger(exch []exchange, stmts []cdwStmt) []*relayJob {
	type key struct {
		kind string
		id   uint64
		seg  int
	}
	jobs := map[key]*relayJob{}
	var order []*relayJob
	kindOf := map[wire.Kind]string{
		wire.KindBeginLoad: "import", wire.KindAttachLoad: "import", wire.KindDataChunk: "import",
		wire.KindEndAcquire: "import", wire.KindApplyDML: "import", wire.KindEndLoad: "import",
		wire.KindBeginExport: "export", wire.KindExportChunkRq: "export", wire.KindEndExport: "export",
		wire.KindBeginStream: "stream", wire.KindDeltaFrame: "stream", wire.KindEndStream: "stream",
	}
	type acc struct {
		firstData, lastData time.Time
		dataIvs             []interval
		app                 interval
	}
	accs := map[*relayJob]*acc{}
	segs := map[uint64]int{} // current segment per stream
	var prev *relayJob
	sorted := append([]exchange(nil), exch...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	for _, e := range sorted {
		kind, ok := kindOf[e.req]
		if !ok || e.resp == wire.KindFailure {
			continue
		}
		k := key{kind, e.job, 0}
		if kind == "stream" {
			// A stream left idle while another job ran resumes as a new
			// segment, so jobs never overlap in the ledger.
			if cur := jobs[key{kind, e.job, segs[e.job]}]; cur != nil && cur != prev {
				segs[e.job]++
			}
			k.seg = segs[e.job]
		}
		j := jobs[k]
		if j == nil {
			j = &relayJob{kind: kind, id: e.job, start: e.start, end: e.end}
			jobs[k] = j
			order = append(order, j)
			accs[j] = &acc{}
		}
		prev = j
		a := accs[j]
		if e.start.Before(j.start) {
			j.start = e.start
		}
		if e.end.After(j.end) {
			j.end = e.end
		}
		switch e.req {
		case wire.KindDataChunk, wire.KindExportChunkRq, wire.KindDeltaFrame:
			if a.firstData.IsZero() || e.start.Before(a.firstData) {
				a.firstData = e.start
			}
			if e.end.After(a.lastData) {
				a.lastData = e.end
			}
			a.dataIvs = append(a.dataIvs, interval{e.start, e.end})
		case wire.KindEndAcquire:
			a.lastData = e.end
		case wire.KindApplyDML, wire.KindBeginExport:
			a.app = interval{e.start, e.end}
		}
	}
	all := stmtIntervals(stmts)
	for _, j := range order {
		a := accs[j]
		switch j.kind {
		case "import", "export":
			if !a.firstData.IsZero() {
				j.acquisition = a.lastData.Sub(a.firstData)
				j.phases = append(j.phases, span{Name: "acquisition", from: a.firstData, to: a.lastData})
			}
			j.application = a.app.to.Sub(a.app.from)
			j.phases = append(j.phases, span{Name: "application", from: a.app.from, to: a.app.to})
		case "stream":
			for _, iv := range a.dataIvs {
				j.acquisition += iv.to.Sub(iv.from) - busy(all, iv.from, iv.to)
			}
			j.application = busy(all, j.start, j.end)
			if !a.firstData.IsZero() {
				j.phases = append(j.phases, span{Name: "frames", from: a.firstData, to: a.lastData})
			}
		}
		j.other = j.wall() - j.acquisition - j.application
		j.cdwWait = busy(all, j.start, j.end)
	}
	return order
}

// ledgerGap returns the largest relative difference between a relay job's
// acquisition+application+other and the client-observed wall clock of the
// same job; jobs pair up in start order.
func ledgerGap(jobs []*relayJob, client []jobTiming) (float64, error) {
	cs := append([]jobTiming(nil), client...)
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	if len(jobs) != len(cs) {
		var rk, ck []string
		for _, j := range jobs {
			rk = append(rk, j.kind)
		}
		for _, c := range cs {
			ck = append(ck, c.kind)
		}
		return 0, fmt.Errorf("relay saw jobs %v, client ran %v", rk, ck)
	}
	var worst float64
	for i, j := range jobs {
		if j.kind != cs[i].kind {
			return 0, fmt.Errorf("job %d is %s at the relay, %s at the client", i, j.kind, cs[i].kind)
		}
		sum := j.acquisition + j.application + j.other
		wall := cs[i].end.Sub(cs[i].start)
		worst = math.Max(worst, math.Abs(float64(sum-wall))/float64(wall))
	}
	return worst, nil
}

// perLayer assembles the traced run's per-layer metrics and writes the span
// file.
func (m *measurement) perLayer(base *measurement, spanPath string) (*result, error) {
	attempted, failed := m.counts(nil)
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	// wire: request/response pairs per session.
	lat := map[wire.Kind][]float64{}
	var begins, ends []float64
	for _, e := range m.exch {
		d := e.end.Sub(e.start)
		lat[e.req] = append(lat[e.req], float64(d))
		switch e.req {
		case wire.KindBeginLoad, wire.KindBeginExport, wire.KindBeginStream:
			begins = append(begins, ms(d))
		case wire.KindEndLoad, wire.KindEndExport, wire.KindEndStream:
			ends = append(ends, ms(d))
		}
	}
	us := func(vs []float64, q float64) float64 { return quantile(vs, q) / 1e3 }
	// Data frames are DataChunks on imports and DeltaFrames on streams; their
	// acks carry the acquisition (and, for streams, the commit) path.
	data := append(lat[wire.KindDataChunk], lat[wire.KindDeltaFrame]...)
	put("wire.data_frames", "count", float64(len(data)))
	put("wire.data_ack_p50_us", "us", us(data, 0.5))
	put("wire.data_ack_p95_us", "us", us(data, 0.95))
	put("wire.export_fetch_p50_us", "us", us(lat[wire.KindExportChunkRq], 0.5))
	put("wire.job_begin_p50_ms", "ms", median(begins))
	put("wire.job_end_p50_ms", "ms", median(ends))

	// core: the per-job ledger, summed over the window's jobs.
	jobs := buildLedger(m.exch, m.stmts)
	gap, err := ledgerGap(jobs, m.rec.jobs)
	if err != nil {
		return nil, err
	}
	var acq, app, oth, wait, wall time.Duration
	for _, j := range jobs {
		acq += j.acquisition
		app += j.application
		oth += j.other
		wait += j.cdwWait
		wall += j.wall()
	}
	put("core.acquisition_ms", "ms", ms(acq))
	put("core.application_ms", "ms", ms(app))
	put("core.other_ms", "ms", ms(oth))
	put("core.cdw_wait_ms", "ms", ms(wait))
	put("core.virt_self_ms", "ms", ms(wall-wait))
	put("core.ledger_gap_pct", "%", 100*gap)

	// cdwnet and cdw: every etlvirtd→cdwd round trip.
	var overhead []float64
	var bytes int64
	var failedStmts int
	var total time.Duration
	count := map[string]int{}
	engine := map[string]time.Duration{}
	for _, s := range m.stmts {
		overhead = append(overhead, float64(s.end.Sub(s.start)-s.engine))
		bytes += s.bytes
		count[s.class]++
		engine[s.class] += s.engine
		total += s.engine
		if s.errCode != 0 {
			failedStmts++
		}
	}
	put("cdwnet.round_trips", "count", float64(len(m.stmts)))
	put("cdwnet.overhead_p50_us", "us", us(overhead, 0.5))
	put("cdwnet.bytes", "bytes", float64(bytes))
	// Per class, engine time is reported as a share of the total, so a class
	// a workload never issues reads as a zero share, not as a time.
	put("cdw.engine_ms", "ms", ms(total))
	for _, c := range cdwClasses {
		put("cdw."+c+".count", "count", float64(count[c]))
		put("cdw."+c+".engine_share", "ratio", ratio(float64(engine[c]), float64(total)))
	}
	put("cdw.failed", "count", float64(failedStmts))
	put("cdw.busy_share", "ratio", ratio(float64(busy(stmtIntervals(m.stmts), m.windowAt, time.Now())), float64(m.rec.unitWall)))

	// errhandle: target inserts issued during import application phases.
	var attempts, fails, streamStmts int
	var tried, wasted time.Duration
	for _, s := range m.stmts {
		for _, j := range jobs {
			if s.start.Before(j.start) || s.start.After(j.end) {
				continue
			}
			switch {
			case j.kind == "import" && s.class == "insert" && inPhase(j, "application", s.start):
				attempts++
				tried += s.engine
				if s.errCode != 0 {
					fails++
					wasted += s.engine
				}
			case j.kind == "stream":
				streamStmts++
			}
		}
	}
	put("errhandle.attempts", "count", float64(attempts))
	put("errhandle.failed", "count", float64(fails))
	put("errhandle.useful_ratio", "ratio", ratio(float64(attempts-fails), float64(attempts)))
	put("errhandle.attempts_per_error", "ratio", ratio(float64(attempts), float64(m.rec.rowErrors)))
	put("errhandle.wasted_share", "ratio", ratio(float64(wasted), float64(tried)))

	// stream: the load generator's commit acknowledgments plus the relay.
	commits := float64(len(m.rec.deltasPerCommit))
	put("stream.commits", "count", commits)
	put("stream.deltas_per_commit_p50", "count", median(m.rec.deltasPerCommit))
	put("stream.stmts_per_commit", "ratio", ratio(float64(streamStmts), commits))

	// Inner layers replayed on the workload's own inputs.
	if err := replayLayers(m.wl.replays(), m.cfg.work, put); err != nil {
		return nil, err
	}

	// Tracing overhead against the untraced pass on the same seed.
	traced := ratio(float64(m.rec.ingestRows), m.rec.ingestWall.Seconds())
	untraced := ratio(float64(base.rec.ingestRows), base.rec.ingestWall.Seconds())
	put("trace.ingest_rows_per_s", "1/s", traced)
	put("trace.untraced_ingest_rows_per_s", "1/s", untraced)
	put("trace.overhead_pct", "%", 100*ratio(untraced-traced, untraced))

	n, err := writeSpans(spanPath, m, jobs)
	if err != nil {
		return nil, err
	}
	put("trace.spans", "count", float64(n))
	fmt.Printf("span file: %s\n", spanPath)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

func inPhase(j *relayJob, name string, t time.Time) bool {
	for _, p := range j.phases {
		if p.Name == name && !t.Before(p.from) && !t.After(p.to) {
			return true
		}
	}
	return false
}

// writeSpans writes job → phase → CDW statement spans as one JSON file and
// returns the span count.
func writeSpans(path string, m *measurement, jobs []*relayJob) (int, error) {
	t0 := m.windowAt
	var spans []span
	add := func(parent int, trace, name string, from, to time.Time) int {
		id := len(spans) + 1
		spans = append(spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
			Start: from.Sub(t0).Microseconds(), End: to.Sub(t0).Microseconds(), from: from, to: to})
		return id
	}
	type owner struct {
		job   *relayJob
		id    int
		trace string
		phase map[string]int
	}
	var owners []owner
	for _, j := range jobs {
		trace := fmt.Sprintf("%s-%d", j.kind, j.id)
		o := owner{job: j, trace: trace, phase: map[string]int{}}
		o.id = add(0, trace, j.kind, j.start, j.end)
		for _, p := range j.phases {
			o.phase[p.Name] = add(o.id, trace, p.Name, p.from, p.to)
		}
		owners = append(owners, o)
	}
	for _, s := range m.stmts {
		for _, o := range owners {
			if s.start.Before(o.job.start) || s.start.After(o.job.end) {
				continue
			}
			parent := o.id
			for _, p := range o.job.phases {
				if !s.start.Before(p.from) && !s.start.After(p.to) {
					parent = o.phase[p.Name]
				}
			}
			sql := strings.Join(strings.Fields(s.sql), " ")
			if len(sql) > 80 {
				sql = sql[:80]
			}
			add(parent, o.trace, s.class+": "+sql, s.start, s.end)
			break
		}
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{m.cfg.workload, m.cfg.seed, spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	return len(spans), os.WriteFile(path, b, 0o644)
}
