package core_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/ltype"
	"etlvirt/internal/obs"
	"etlvirt/internal/wire"
)

const accountDDL = `CREATE TABLE PROD.ACCOUNT (
	ACCT_ID VARCHAR(8) NOT NULL,
	OWNER VARCHAR(40),
	PRIMARY KEY (ACCT_ID))`

// cdcScript mirrors examples/cdcstream: one stream block with a tight
// latency target feeding PROD.ACCOUNT.
const cdcScript = `
.logon host/user,pass;
.layout AcctLayout;
.field ACCT_ID varchar(8);
.field OWNER varchar(40);
.begin stream name acct_cdc tables PROD.ACCOUNT
	errortables PROD.ACCOUNT_ET latency 50;
.dml label Apply;
insert into PROD.ACCOUNT values ( trim(:ACCT_ID), trim(:OWNER) );
.stream infile deltas.txt format vartext '|' layout AcctLayout apply Apply;
.end stream;
`

func cdcDeltas(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "I|A%06d|Owner %d\n", i, i)
	}
	return sb.String()
}

// TestDistributedTraceStitched is the PR's acceptance pin: a traced
// cdcstream-style run must leave one stitched trace whose spans come from
// all three processes — etlclient, etlvirtd and cdwd — causally linked into
// a single tree under the client's root span.
func TestDistributedTraceStitched(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, accountDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	res := runScript(t, st.addr, cdcScript, map[string]string{"deltas.txt": cdcDeltas(60)},
		etlclient.Options{Trace: true})
	if len(res.TraceID) != 16 {
		t.Fatalf("client trace ID: %q", res.TraceID)
	}

	code, body := httpGet(t, dbgAddr, "/traces/"+res.TraceID)
	if code != 200 {
		t.Fatalf("/traces/%s: status %d: %s", res.TraceID, code, body)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if snap.TraceID != res.TraceID {
		t.Errorf("stitched trace ID %q, want %q", snap.TraceID, res.TraceID)
	}
	if !snap.Finished {
		t.Errorf("trace not finished after the run completed")
	}

	byID := make(map[uint64]obs.Span, len(snap.Spans))
	procs := map[string]int{}
	for _, sp := range snap.Spans {
		if sp.ID == 0 {
			t.Fatalf("span without ID: %+v", sp)
		}
		byID[sp.ID] = sp
		procs[sp.Proc]++
	}
	for _, proc := range []string{"etlclient", "etlvirtd", "cdwd"} {
		if procs[proc] == 0 {
			t.Errorf("no spans from %s; have %v", proc, procs)
		}
	}

	// Every parent link resolves inside the trace: the tree has no orphans.
	var clientRoot, serverRoot obs.Span
	for _, sp := range snap.Spans {
		if sp.Parent != 0 {
			if _, ok := byID[sp.Parent]; !ok {
				t.Errorf("span %d (%s/%s) parent %d not in trace", sp.ID, sp.Proc, sp.Stage, sp.Parent)
			}
		}
		switch {
		case sp.Proc == "etlclient" && sp.Stage == "client":
			clientRoot = sp
		case sp.Proc == "etlvirtd" && sp.Stage == "job":
			serverRoot = sp
		}
	}
	if clientRoot.ID == 0 {
		t.Fatal("no client root span")
	}
	if clientRoot.Parent != 0 {
		t.Errorf("client root has parent %d, want none", clientRoot.Parent)
	}
	if serverRoot.ID == 0 {
		t.Fatal("no virtualizer job root span")
	}
	// Causal order across processes: the virtualizer's job root parents
	// under the client root, and every cdwd engine span nests inside a
	// virtualizer-side cdw_* round-trip span.
	if serverRoot.Parent != clientRoot.ID {
		t.Errorf("virtualizer root parent %d, want client root %d", serverRoot.Parent, clientRoot.ID)
	}
	engines := 0
	for _, sp := range snap.Spans {
		if sp.Proc != "cdwd" {
			continue
		}
		engines++
		parent, ok := byID[sp.Parent]
		if !ok {
			continue // already reported above
		}
		if parent.Proc != "etlvirtd" || !strings.HasPrefix(parent.Stage, "cdw_") {
			t.Errorf("engine span %d parent is %s/%s, want an etlvirtd cdw_* span", sp.ID, parent.Proc, parent.Stage)
			continue
		}
		if sp.Start.Before(parent.Start) || sp.Start.Add(sp.Dur).After(parent.Start.Add(parent.Dur)) {
			t.Errorf("engine span [%v +%v] escapes its round trip [%v +%v]",
				sp.Start, sp.Dur, parent.Start, parent.Dur)
		}
	}
	if engines == 0 {
		t.Error("no cdwd engine spans in the stitched trace")
	}

	// The stream's per-stage attribution made it into the same trace.
	stages := map[string]int{}
	for _, sp := range snap.Spans {
		stages[sp.Stage]++
	}
	for _, want := range []string{"frame_recv", "spool", "apply", "checkpoint"} {
		if stages[want] == 0 {
			t.Errorf("stage %q missing from stitched trace; have %v", want, stages)
		}
	}

	// Chrome export lays the three processes out as separate trace processes.
	code, body = httpGet(t, dbgAddr, "/traces/"+res.TraceID+"?format=chrome")
	if code != 200 {
		t.Fatalf("chrome trace: status %d", code)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome JSON: %v", err)
	}
	chromeProcs := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			chromeProcs[fmt.Sprint(ev.Args["name"])] = true
		}
	}
	if len(chromeProcs) < 3 {
		t.Errorf("chrome trace has %d processes, want >= 3: %v", len(chromeProcs), chromeProcs)
	}

	if code, _ := httpGet(t, dbgAddr, "/traces/0123456789abcdef"); code != 404 {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
	if code, _ := httpGet(t, dbgAddr, "/traces/nothex"); code != 400 {
		t.Errorf("malformed trace ID: status %d, want 400", code)
	}
}

// TestLiveJobTraceEndpoint pins /jobs/{id}/trace for a job that is still
// running: the snapshot must be served mid-flight, unfinished, and then
// flip to finished once the job retires.
func TestLiveJobTraceEndpoint(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := wire.Dial(st.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(0, &wire.Logon{User: "u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindLogonOK); err != nil {
		t.Fatal(err)
	}
	layout := &ltype.Layout{Name: "L", Fields: []ltype.Field{
		{Name: "K", Type: ltype.VarChar(5)},
		{Name: "V", Type: ltype.VarChar(50)},
		{Name: "D", Type: ltype.VarChar(10)},
	}}
	if err := conn.Send(0, &wire.BeginLoad{
		Table: "PROD.CUSTOMER", Layout: layout,
		Format: wire.FormatVartext, Delim: '|', Sessions: 1,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Expect(wire.KindLoadOK)
	if err != nil {
		t.Fatal(err)
	}
	jobID := m.(*wire.LoadOK).JobID

	if err := conn.Send(0, &wire.DataChunk{
		JobID: jobID, Seq: 0, FirstRow: 1, Count: 1,
		Payload: []byte("1|A|2020-01-01\n"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindChunkAck); err != nil {
		t.Fatal(err)
	}

	path := fmt.Sprintf("/jobs/%d/trace", jobID)
	code, body := httpGet(t, dbgAddr, path)
	if code != 200 {
		t.Fatalf("live trace: status %d: %s", code, body)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("live trace JSON: %v", err)
	}
	if snap.Finished {
		t.Error("trace reported finished while the job is mid-acquisition")
	}
	if !snap.End.IsZero() {
		t.Errorf("live trace has an end time: %v", snap.End)
	}
	if len(snap.TraceID) != 16 {
		t.Errorf("live trace ID: %q", snap.TraceID)
	}
	if len(snap.Spans) == 0 {
		t.Fatal("live trace has no spans")
	}
	// The synthesized root span covers the job so far and keeps growing.
	if snap.Spans[0].Stage != "job" {
		t.Errorf("first span: %q, want the job root", snap.Spans[0].Stage)
	}

	if err := conn.Send(0, &wire.EndAcquire{JobID: jobID}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindAcquireDone); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(0, &wire.EndLoad{JobID: jobID}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindLoadDone); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body = httpGet(t, dbgAddr, path)
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("finished trace JSON: %v", err)
		}
		if snap.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trace never finished after LoadDone")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.End.IsZero() {
		t.Error("finished trace has no end time")
	}
}

// TestStreamWatermarkLagGauge drives a stream by hand and scrapes /metrics
// and /streams while it is open: the per-stream watermark-lag gauge and the
// SLO attribution view must both report the live stream.
func TestStreamWatermarkLagGauge(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, accountDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := wire.Dial(st.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(0, &wire.Logon{User: "u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindLogonOK); err != nil {
		t.Fatal(err)
	}
	layout := &ltype.Layout{Name: "A", Fields: []ltype.Field{
		{Name: "ACCT_ID", Type: ltype.VarChar(8)},
		{Name: "OWNER", Type: ltype.VarChar(40)},
	}}
	if err := conn.Send(0, &wire.BeginStream{
		Name: "lag_probe", Table: "PROD.ACCOUNT", ErrTableET: "PROD.ACCOUNT_ET",
		Layout: layout, Format: wire.FormatVartext, Delim: '|',
		SQL:             "insert into PROD.ACCOUNT values ( trim(:ACCT_ID), trim(:OWNER) )",
		LatencyTargetMS: 100,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Expect(wire.KindStreamOK)
	if err != nil {
		t.Fatal(err)
	}
	ok := m.(*wire.StreamOK)

	var payload []byte
	payload = append(payload, 'I')
	payload = append(payload, []byte("A000001|Owner 1\n")...)
	if err := conn.Send(0, &wire.DeltaFrame{
		StreamID: ok.StreamID, FirstSeq: 1, Count: 1, Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindDeltaAck); err != nil {
		t.Fatal(err)
	}

	_, metrics := httpGet(t, dbgAddr, "/metrics")
	if !strings.Contains(metrics, `etlvirt_stream_watermark_lag_seconds{stream="lag_probe"}`) {
		t.Errorf("no live watermark-lag series for the open stream:\n%s",
			grepPrefix(metrics, "etlvirt_stream_watermark_lag"))
	}

	code, body := httpGet(t, dbgAddr, "/streams")
	if code != 200 {
		t.Fatalf("/streams: status %d", code)
	}
	var streams []core.StreamStatus
	if err := json.Unmarshal([]byte(body), &streams); err != nil {
		t.Fatalf("/streams JSON: %v\n%s", err, body)
	}
	if len(streams) != 1 {
		t.Fatalf("streams: %+v, want one open stream", streams)
	}
	ss := streams[0]
	if ss.Name != "lag_probe" || ss.Target != "PROD.ACCOUNT" {
		t.Errorf("stream status identity: %+v", ss)
	}
	if ss.SLOTargetMS != 100 {
		t.Errorf("SLO target: %d ms, want 100", ss.SLOTargetMS)
	}
	if len(ss.TraceID) != 16 {
		t.Errorf("stream trace ID: %q", ss.TraceID)
	}

	if err := conn.Send(0, &wire.EndStream{StreamID: ok.StreamID}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(wire.KindStreamDone); err != nil {
		t.Fatal(err)
	}
	// Closed stream leaves the gauge: no stale series.
	_, metrics = httpGet(t, dbgAddr, "/metrics")
	if strings.Contains(metrics, `etlvirt_stream_watermark_lag_seconds{stream=`) {
		t.Errorf("watermark-lag series survived stream close:\n%s",
			grepPrefix(metrics, "etlvirt_stream_watermark_lag"))
	}
}

// TestMetricsExpositionFormat parses /metrics line by line and pins the
// Prometheus text exposition contract: families sorted by name, HELP
// directly before TYPE with non-empty help text, every sample parseable,
// histogram buckets with strictly increasing bounds, non-decreasing
// cumulative counts, a trailing +Inf bucket equal to _count.
func TestMetricsExpositionFormat(t *testing.T) {
	st := startStack(t, core.Config{})
	mustEng(t, st.eng, customerDDL)
	mustEng(t, st.eng, accountDDL)
	dbgAddr, err := st.node.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": figure5Data},
		etlclient.Options{ChunkRecords: 2, Trace: true})
	// A traced stream run populates the stream-stage histograms and leaves
	// exemplars behind for the opt-in exposition variant.
	runScript(t, st.addr, cdcScript, map[string]string{"deltas.txt": cdcDeltas(40)},
		etlclient.Options{Trace: true})

	_, body := httpGet(t, dbgAddr, "/metrics")

	type bucket struct {
		le    float64
		count int64
	}
	var families []string // in exposition order
	buckets := map[string][]bucket{}
	counts := map[string]int64{}
	sums := map[string]bool{}
	samples := map[string]int{}
	typed := map[string]string{}
	lastHelp := ""

	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 || strings.TrimSpace(parts[3]) == "" {
				t.Errorf("line %d: HELP without help text: %q", i+1, line)
				continue
			}
			families = append(families, parts[2])
			lastHelp = parts[2]
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if parts[2] != lastHelp {
				t.Errorf("line %d: TYPE %s does not follow its HELP (last HELP %s)", i+1, parts[2], lastHelp)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("line %d: unknown metric type %q", i+1, parts[3])
			}
			typed[parts[2]] = parts[3]
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unexpected comment %q", i+1, line)
		default:
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Errorf("line %d: sample is not `name value`: %q", i+1, line)
				continue
			}
			val, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Errorf("line %d: unparseable value %q", i+1, fields[1])
				continue
			}
			name := fields[0]
			samples[name]++
			fam := metricFamily(name)
			if typed[fam] == "" {
				t.Errorf("line %d: sample %q precedes its TYPE line", i+1, name)
			}
			switch {
			case strings.Contains(name, "_bucket{le="):
				base := name[:strings.Index(name, "_bucket{")]
				leStr := name[strings.Index(name, `le="`)+4:]
				leStr = leStr[:strings.IndexByte(leStr, '"')]
				le := math.Inf(1)
				if leStr != "+Inf" {
					if le, err = strconv.ParseFloat(leStr, 64); err != nil {
						t.Errorf("line %d: unparseable le %q", i+1, leStr)
						continue
					}
				}
				buckets[base] = append(buckets[base], bucket{le: le, count: int64(val)})
			case strings.HasSuffix(name, "_sum"):
				sums[strings.TrimSuffix(name, "_sum")] = true
			case strings.HasSuffix(name, "_count"):
				counts[strings.TrimSuffix(name, "_count")] = int64(val)
			}
		}
	}

	if len(families) == 0 {
		t.Fatal("no metric families parsed")
	}
	sorted := append([]string(nil), families...)
	seen := map[string]bool{}
	for _, f := range families {
		if seen[f] {
			t.Errorf("family %s exposed twice", f)
		}
		seen[f] = true
	}
	if !strings.HasPrefix(families[0], "etlvirt_") {
		t.Errorf("first family %q outside the namespace", families[0])
	}
	sortStrings(sorted)
	for i := range families {
		if families[i] != sorted[i] {
			t.Fatalf("families not sorted: position %d has %s, sorted order wants %s", i, families[i], sorted[i])
		}
	}
	for name, n := range samples {
		if n > 1 {
			t.Errorf("series %s emitted %d times", name, n)
		}
	}

	histFamilies := 0
	for fam, typ := range typed {
		if typ != "histogram" {
			continue
		}
		histFamilies++
		bks := buckets[fam]
		if len(bks) == 0 {
			t.Errorf("histogram %s has no buckets", fam)
			continue
		}
		for i := 1; i < len(bks); i++ {
			if bks[i].le <= bks[i-1].le {
				t.Errorf("%s: bucket bounds not increasing: le=%v after le=%v", fam, bks[i].le, bks[i-1].le)
			}
			if bks[i].count < bks[i-1].count {
				t.Errorf("%s: cumulative counts decrease: %d after %d (le=%v)", fam, bks[i].count, bks[i-1].count, bks[i].le)
			}
		}
		last := bks[len(bks)-1]
		if !math.IsInf(last.le, 1) {
			t.Errorf("%s: last bucket le=%v, want +Inf", fam, last.le)
		}
		if !sums[fam] {
			t.Errorf("%s: no _sum series", fam)
		}
		c, ok := counts[fam]
		if !ok {
			t.Errorf("%s: no _count series", fam)
		} else if c != last.count {
			t.Errorf("%s: _count %d != +Inf bucket %d", fam, c, last.count)
		}
	}
	if histFamilies < 10 {
		t.Errorf("only %d histogram families parsed", histFamilies)
	}
	// Count histograms expose the power-of-two count layout and saw the
	// import's manifests and the stream's micro-batches.
	for _, fam := range []string{"etlvirt_copy_batch_files", "etlvirt_stream_batch_rows"} {
		bks := buckets[fam]
		if len(bks) != len(obs.CountBuckets)+1 {
			t.Errorf("%s: %d buckets, want the %d count bounds plus +Inf", fam, len(bks), len(obs.CountBuckets))
			continue
		}
		for i, le := range obs.CountBuckets {
			if bks[i].le != le {
				t.Errorf("%s: bucket %d le=%v, want %v", fam, i, bks[i].le, le)
			}
		}
		if counts[fam] == 0 {
			t.Errorf("%s: no observations", fam)
		}
	}

	// The traced import left exemplars behind the opt-in query parameter.
	_, exemplars := httpGet(t, dbgAddr, "/metrics?exemplars=1")
	if !strings.Contains(exemplars, `# {trace_id="`) {
		t.Error("no exemplar annotations on /metrics?exemplars=1 after a traced run")
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k] < s[k-1]; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
}
