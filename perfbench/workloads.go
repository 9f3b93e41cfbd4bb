package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"etlvirt/internal/bench"
	"etlvirt/internal/etlscript"
	"etlvirt/internal/ltype"
	"etlvirt/internal/sqlxlate"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
	"etlvirt/internal/workload"
)

// workloadRunner is one benchmark workload. Inputs are generated from the
// seed when the runner is built; the servers see only those inputs.
type workloadRunner interface {
	// setup creates the schema and prefill directly on cdwd.
	setup(st *stack) error
	// unit runs one timed unit of jobs through etlvirtd.
	unit(st *stack, rec *recorder) error
	// check verifies the unit's outputs against the oracle (untimed).
	check(st *stack) error
	// reset restores the state the next unit starts from, directly on cdwd
	// (untimed).
	reset(st *stack) error
	// finish ends work that spans units, once the window is over.
	finish(st *stack, rec *recorder) error
	// replays lists the inputs the traced run replays through the inner
	// layers' public functions.
	replays() []replayInput
}

var workloadNames = []string{"load_export", "dirty_load", "cdc_upsert", "nightly_mix"}

func newWorkload(name string, seed int64) (workloadRunner, error) {
	switch name {
	case "load_export":
		return newLoadExport(seed, 100_000)
	case "dirty_load":
		return newDirtyLoad(seed, 3000)
	case "cdc_upsert":
		return newCDCUpsert(seed, cdcUnit)
	case "nightly_mix":
		return newNightlyMix(seed, 127)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// replayInput is one job's input as the inner layers see it.
type replayInput struct {
	layout *ltype.Layout
	format wire.DataFormat
	delim  byte
	chunks []chunk
	dml    string
	et     string
}

// importFromScript builds the import job of the script's first import block
// over data, chunked per records.
func importFromScript(script *etlscript.Script, blk *etlscript.ImportBlock, data []byte, per int) (*importSpec, error) {
	imp := blk.Imports[0]
	layout, err := script.Layout(imp.LayoutName)
	if err != nil {
		return nil, err
	}
	chunks, rows, err := splitChunks(data, imp.Format, per)
	if err != nil {
		return nil, err
	}
	return &importSpec{
		begin: wire.BeginLoad{
			Table: blk.Table, ErrTableET: blk.ErrTableET, ErrTableUV: blk.ErrTableUV,
			Layout: layout, Format: imp.Format, Delim: imp.Delim,
			Sessions: uint16(max(blk.Sessions, 1)), MaxErrors: uint32(blk.MaxErrors), MaxRetries: uint32(blk.MaxRetries),
		},
		label:  imp.ApplyLabel,
		dml:    blk.DMLs[strings.ToLower(imp.ApplyLabel)],
		chunks: chunks,
		rows:   rows,
	}, nil
}

func (s *importSpec) replay() replayInput {
	return replayInput{layout: s.begin.Layout, format: s.begin.Format, delim: s.begin.Delim,
		chunks: s.chunks, dml: s.dml, et: s.begin.ErrTableET}
}

// firstFields returns the first '|'-separated field of every exported line.
func firstFields(data []byte) []string {
	var out []string
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if i := bytes.IndexByte(line, '|'); i >= 0 {
			line = line[:i]
		}
		out = append(out, string(line))
	}
	return out
}

func equalKeys(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("export returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("export key %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// benchLoad is the shared shape of load_export and dirty_load: a
// bench.Workload import into a PK table followed by an ORDER BY export of
// what landed.
type benchLoad struct {
	w         bench.Workload
	table     string
	spec      *importSpec
	exportSQL string

	// oracle
	wantInserted, wantET, wantUV int64
	wantKeys                     []string

	// last unit's outputs
	got      importOut
	exported []byte
}

func newBenchLoad(w bench.Workload, data []byte, table, extra string, exportAll bool) (*benchLoad, error) {
	script, err := etlscript.Parse(w.Script(table, extra))
	if err != nil {
		return nil, err
	}
	spec, err := importFromScript(script, script.Steps[0].Import, data, 500)
	if err != nil {
		return nil, err
	}
	b := &benchLoad{w: w, table: table, spec: spec}
	cols := "K"
	if exportAll {
		var names []string
		for _, f := range spec.begin.Layout.Fields {
			names = append(names, f.Name)
		}
		cols = strings.Join(names, ", ")
	}
	b.exportSQL = fmt.Sprintf("select %s from %s order by K", cols, table)

	// Legacy apply semantics, row by row in input order: a bad date is a
	// transformation error (ET); otherwise a key already loaded is a
	// uniqueness violation (UV); otherwise the row lands.
	landed := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		f := strings.SplitN(string(line), "|", 3)
		switch {
		case f[1] == "9999-99-99":
			b.wantET++
		case landed[f[0]]:
			b.wantUV++
		default:
			landed[f[0]] = true
			b.wantKeys = append(b.wantKeys, f[0])
		}
	}
	b.wantInserted = int64(len(b.wantKeys))
	sort.Strings(b.wantKeys)
	return b, nil
}

func (b *benchLoad) setup(st *stack) error { return st.exec(b.w.TargetDDL(b.table)) }

func (b *benchLoad) unit(st *stack, rec *recorder) error {
	ctl, err := dialSession(st.clientTo)
	if err != nil {
		return err
	}
	defer ctl.close()
	if b.got, err = runImport(st.clientTo, ctl, b.spec, rec); err != nil {
		return fmt.Errorf("import: %w", err)
	}
	if b.exported, _, err = runExport(st.clientTo, ctl, b.exportSQL, 2, rec); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	return nil
}

func (b *benchLoad) check(*stack) error {
	g := b.got
	if g.inserted != b.wantInserted || g.errorsET != b.wantET || g.errorsUV != b.wantUV {
		return fmt.Errorf("import inserted/ET/UV = %d/%d/%d, want %d/%d/%d",
			g.inserted, g.errorsET, g.errorsUV, b.wantInserted, b.wantET, b.wantUV)
	}
	if g.staged != b.spec.rows {
		return fmt.Errorf("import staged %d rows, sent %d", g.staged, b.spec.rows)
	}
	return equalKeys(firstFields(b.exported), b.wantKeys)
}

func (b *benchLoad) reset(st *stack) error {
	return st.exec("DROP TABLE "+b.table, b.w.TargetDDL(b.table))
}

func (b *benchLoad) finish(*stack, *recorder) error { return nil }

func (b *benchLoad) replays() []replayInput { return []replayInput{b.spec.replay()} }

// newLoadExport builds load_export: clean Fig 7-style imports of rows
// ~200-byte rows over 2 sessions, each followed by a 2-session export of the
// whole table ordered by key.
func newLoadExport(seed int64, rows int) (*benchLoad, error) {
	w := bench.Workload{Rows: rows, RowBytes: 200, Seed: seed}
	return newBenchLoad(w, w.Generate(), "BENCH.LOADX", " sessions 2", true)
}

// newDirtyLoad builds dirty_load: Fig 11-style imports with exactly 1% bad
// dates and 0.5% duplicate keys at seeded positions, under a max_errors
// budget of 3% of the rows (the paper's cap), each followed by an export of
// the loaded keys. Exact counts keep the error-handling work the same from
// seed to seed; only the positions move.
func newDirtyLoad(seed int64, rows int) (*benchLoad, error) {
	w := bench.Workload{Rows: rows, RowBytes: 200, Seed: seed}
	data := injectErrors(w.Generate(), rand.New(rand.NewSource(seed)), rows/100, rows/200)
	return newBenchLoad(w, data, "BENCH.DIRTY", fmt.Sprintf(" sessions 2 maxerrors %d", rows*3/100), false)
}

// injectErrors gives bad dates rows a "9999-99-99" date and dups rows the
// key of an earlier clean row, each at distinct random positions.
func injectErrors(data []byte, rng *rand.Rand, bad, dups int) []byte {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	perm := rng.Perm(len(lines) - 1)
	dirty := map[int]bool{}
	for _, i := range perm[:bad] {
		f := strings.SplitN(lines[i+1], "|", 3)
		lines[i+1] = f[0] + "|9999-99-99|" + f[2]
		dirty[i+1] = true
	}
	// Ascending order: a row copied from is never rewritten afterwards.
	dupAt := append([]int(nil), perm[bad:bad+dups]...)
	sort.Ints(dupAt)
	for _, i := range dupAt {
		src := rng.Intn(i + 1)
		for dirty[src] {
			src = rng.Intn(i + 1)
		}
		f := strings.SplitN(lines[i+1], "|", 2)
		lines[i+1] = strings.SplitN(lines[src], "|", 2)[0] + "|" + f[1]
		dirty[i+1] = true
	}
	return []byte(strings.Join(lines, "\n") + "\n")
}

// cdcUnit is the number of deltas after which a cdc_upsert unit pauses the
// stream at a commit boundary and reads the table back.
const cdcUnit = 100

const cdcKeys = 1000

const cdcScript = `.logon host/bench,bench;
.layout LCDC;
.field ID varchar(6);
.field NAME varchar(60);
.field DT varchar(10);
.begin stream name bench_cdc tables BENCH.CDC errortables BENCH.CDC_ET latency 200;
.dml label ApplyCDC;
insert into BENCH.CDC values (trim(:ID), trim(:NAME), cast(:DT as DATE format 'YYYY-MM-DD'));
.stream infile cdc.txt format vartext '|' layout LCDC apply ApplyCDC;
.end stream;
`

// change is one generated delta with its effect on the oracle.
type change struct {
	seq   uint64
	key   string
	image string // empty for a delete
}

// cdcUpsert is the cdc_upsert workload: one named stream, open for the whole
// run, over a 1000-key table prefilled at set-up. Each unit streams at least
// unit deltas closed-loop, stops at a commit boundary and reads the table
// back through an export on a second session while the stream is idle.
type cdcUpsert struct {
	rng    *rand.Rand
	per    int // deltas per unit, at least
	begin  wire.BeginStream
	images map[string]string // oracle after every generated delta
	next   uint64            // sequence of the next delta to generate

	committed map[string]string // oracle at the watermark last read back
	pending   []change          // generated, not yet folded into committed

	stream   *openStream
	exp      *session
	frame    []delta
	exported []byte
	readAt   uint64 // CommittedSeq when the table was read back
}

func newCDCUpsert(seed int64, unit int) (*cdcUpsert, error) {
	script, err := etlscript.Parse(cdcScript)
	if err != nil {
		return nil, err
	}
	blk := script.Steps[0].Stream
	cmd := blk.Streams[0]
	layout, err := script.Layout(cmd.LayoutName)
	if err != nil {
		return nil, err
	}
	c := &cdcUpsert{
		rng: rand.New(rand.NewSource(seed)),
		per: unit,
		begin: wire.BeginStream{
			Name: blk.Name, Table: blk.Table, ErrTableET: blk.ErrTableET, Layout: layout,
			Format: cmd.Format, Delim: cmd.Delim, SQL: blk.DMLs[strings.ToLower(cmd.ApplyLabel)],
			LatencyTargetMS: uint32(blk.LatencyMS),
		},
		images:    map[string]string{},
		committed: map[string]string{},
		next:      1,
	}
	for k := 0; k < cdcKeys; k++ {
		c.images[cdcKey(k)] = cdcPrefill(k)
		c.committed[cdcKey(k)] = cdcPrefill(k)
	}
	return c, nil
}

func cdcKey(k int) string { return fmt.Sprintf("C%04d", k) }

// cdcPrefill is key k's image before any delta.
func cdcPrefill(k int) string { return fmt.Sprintf("Prefill %d|2024-01-%02d", k, 1+k%28) }

var names = []string{"Smith", "Jones", "Brown", "Garcia", "Miller", "Davis", "Wilson", "Moore"}

// draw generates the next delta and advances the oracle. Keys are drawn with
// a quadratic hot-key skew; a live key is updated (8 in 9) or deleted, an
// absent key is inserted, which settles near 80% U, 10% D, 10% I.
func (c *cdcUpsert) draw() delta {
	seq := c.next
	c.next++
	r := c.rng.Float64()
	id := cdcKey(int(r * r * cdcKeys))
	_, live := c.images[id]
	if live && c.rng.Intn(9) == 0 {
		delete(c.images, id)
		c.pending = append(c.pending, change{seq: seq, key: id})
		return delta{op: stream.OpDelete, record: []byte(id + "||\n")}
	}
	op := stream.OpInsert
	if live {
		op = stream.OpUpdate
	}
	img := fmt.Sprintf("%s %d|20%02d-%02d-%02d", names[c.rng.Intn(len(names))], seq,
		24+c.rng.Intn(6), 1+c.rng.Intn(12), 1+c.rng.Intn(28))
	c.images[id] = img
	c.pending = append(c.pending, change{seq: seq, key: id, image: img})
	return delta{op: op, record: []byte(id + "|" + img + "\n")}
}

func (c *cdcUpsert) setup(st *stack) error {
	stmts := []string{`CREATE TABLE BENCH.CDC (ID VARCHAR(6) NOT NULL, NAME VARCHAR(60), DT DATE, PRIMARY KEY (ID))`}
	var sb strings.Builder
	for k := 0; k < cdcKeys; k++ {
		if k%100 == 0 {
			if sb.Len() > 0 {
				stmts = append(stmts, sb.String())
			}
			sb.Reset()
			sb.WriteString("INSERT INTO BENCH.CDC VALUES ")
		} else {
			sb.WriteString(", ")
		}
		f := strings.Split(cdcPrefill(k), "|")
		fmt.Fprintf(&sb, "('%s', '%s', DATE '%s')", cdcKey(k), f[0], f[1])
	}
	return st.exec(append(stmts, sb.String())...)
}

// unit opens the stream on first use, streams hint-sized frames until at
// least c.per deltas went out and everything sent is committed, then reads
// the table back.
func (c *cdcUpsert) unit(st *stack, rec *recorder) error {
	if c.stream == nil {
		ctl, err := dialSession(st.clientTo)
		if err != nil {
			return err
		}
		if c.stream, err = beginStream(ctl, &c.begin); err != nil {
			ctl.close()
			return err
		}
		if c.stream.resume != 0 {
			return fmt.Errorf("new stream resumed at %d", c.stream.resume)
		}
		if c.exp, err = dialSession(st.clientTo); err != nil {
			return err
		}
	}
	start := time.Now()
	first := c.next
	for c.next-first < uint64(c.per) || c.stream.committed != c.stream.sent {
		seq := c.next
		c.frame = c.frame[:0]
		for i := 0; i < c.stream.hint; i++ {
			c.frame = append(c.frame, c.draw())
		}
		if err := c.stream.sendFrame(seq, c.frame, rec); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	end := time.Now()
	rec.ingest(start, end, int64(c.next-first))
	rec.job("stream", start, end)
	c.readAt = c.stream.committed
	var err error
	if c.exported, _, err = runExport(st.clientTo, c.exp, "select ID, NAME, DT from BENCH.CDC order by ID", 1, rec); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	return nil
}

// check folds the deltas up to the read-back watermark into the committed
// oracle and compares the exported table with it byte for byte.
func (c *cdcUpsert) check(*stack) error {
	i := 0
	for ; i < len(c.pending) && c.pending[i].seq <= c.readAt; i++ {
		if ch := c.pending[i]; ch.image == "" {
			delete(c.committed, ch.key)
		} else {
			c.committed[ch.key] = ch.image
		}
	}
	c.pending = c.pending[i:]
	keys := make([]string, 0, len(c.committed))
	for k := range c.committed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var want bytes.Buffer
	for _, k := range keys {
		want.WriteString(k + "|" + c.committed[k] + "\n")
	}
	if !bytes.Equal(c.exported, want.Bytes()) {
		return fmt.Errorf("table at watermark %d diverges from the last-image-per-key oracle: %s",
			c.readAt, firstDiff(c.exported, want.Bytes()))
	}
	return nil
}

func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

func (c *cdcUpsert) reset(*stack) error { return nil } // the stream carries on

// finish ends the stream: the final watermark must be the last delta sent,
// with no delta in the error table, and the table must match the oracle.
func (c *cdcUpsert) finish(st *stack, rec *recorder) error {
	defer c.stream.ctl.close()
	defer c.exp.close()
	start := time.Now()
	done, err := c.stream.end(rec)
	if err != nil {
		return err
	}
	rec.job("stream", start, time.Now())
	if done.Watermark != c.next-1 || done.ErrorsET != 0 {
		return fmt.Errorf("stream ended at watermark %d with %d errors, want %d and none", done.Watermark, done.ErrorsET, c.next-1)
	}
	c.readAt = done.Watermark
	if c.exported, _, err = runExport(st.clientTo, c.exp, "select ID, NAME, DT from BENCH.CDC order by ID", 1, rec); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	return c.check(st)
}

// replays hands the inner layers the rows of the next deltas, as the
// stream's converter sees them.
func (c *cdcUpsert) replays() []replayInput {
	var data []byte
	for i := 0; i < 4*c.per; i++ {
		data = append(data, c.draw().record...)
	}
	chunks, _, _ := splitChunks(data, wire.FormatVartext, 32)
	return []replayInput{{layout: c.begin.Layout, format: c.begin.Format, delim: c.begin.Delim,
		chunks: chunks, dml: c.begin.SQL, et: c.begin.ErrTableET}}
}

// mixStep is one pre-built block of the nightly scenario.
type mixStep struct {
	imp        *importSpec
	exportSQL  string
	exportRows int64
	stream     *wire.BeginStream
	deltas     []delta
	sql        string
}

// nightlyMix runs the internal/workload scenario at groups batch groups,
// resetting every touched table, including the stream checkpoint, between
// repetitions.
type nightlyMix struct {
	sc     *workload.Scenario
	steps  []mixStep
	tables []string

	exportRows []int64 // rows returned by the scenario's own exports
	readBack   []int64 // rows read back per manifest table, in manifest order
}

func newNightlyMix(seed int64, groups int) (*nightlyMix, error) {
	sc, err := workload.Generate(workload.Config{Groups: groups, Seed: seed})
	if err != nil {
		return nil, err
	}
	script, err := etlscript.Parse(sc.Script)
	if err != nil {
		return nil, err
	}
	n := &nightlyMix{sc: sc}
	exports := sc.Exports
	for _, st := range script.Steps {
		switch {
		case st.Import != nil:
			spec, err := importFromScript(script, st.Import, sc.Files[st.Import.Imports[0].Infile], 500)
			if err != nil {
				return nil, err
			}
			n.steps = append(n.steps, mixStep{imp: spec})
		case st.Export != nil:
			if len(exports) == 0 {
				return nil, fmt.Errorf("scenario export without a manifest entry")
			}
			n.steps = append(n.steps, mixStep{exportSQL: st.Export.Query, exportRows: exports[0].Rows})
			exports = exports[1:]
		case st.Stream != nil:
			blk := st.Stream
			cmd := blk.Streams[0]
			layout, err := script.Layout(cmd.LayoutName)
			if err != nil {
				return nil, err
			}
			deltas, err := parseDeltas(sc.Files[cmd.Infile], cmd.Delim)
			if err != nil {
				return nil, err
			}
			n.steps = append(n.steps, mixStep{deltas: deltas, stream: &wire.BeginStream{
				Name: blk.Name, Table: blk.Table, ErrTableET: blk.ErrTableET, Layout: layout,
				Format: cmd.Format, Delim: cmd.Delim, SQL: blk.DMLs[strings.ToLower(cmd.ApplyLabel)],
				LatencyTargetMS: uint32(blk.LatencyMS), MaxErrors: uint32(blk.MaxErrors),
			}})
		case st.SQL != "":
			n.steps = append(n.steps, mixStep{sql: st.SQL})
		}
	}
	for _, ddl := range sc.DDL {
		f := strings.Fields(ddl)
		n.tables = append(n.tables, f[2])
	}
	return n, nil
}

// parseDeltas splits a vartext delta file ("op|record" lines).
func parseDeltas(data []byte, delim byte) ([]delta, error) {
	var out []delta
	for i, line := range ltype.SplitVartextLines(data) {
		if len(line) < 2 || line[1] != delim || !stream.Op(line[0]).Valid() {
			return nil, fmt.Errorf("delta line %d malformed", i+1)
		}
		out = append(out, delta{op: stream.Op(line[0]), record: append(append([]byte(nil), line[2:]...), '\n')})
	}
	return out, nil
}

func (n *nightlyMix) setup(st *stack) error { return st.exec(n.sc.DDL...) }

func (n *nightlyMix) unit(st *stack, rec *recorder) error {
	ctl, err := dialSession(st.clientTo)
	if err != nil {
		return err
	}
	defer ctl.close()
	n.exportRows = n.exportRows[:0]
	for i, s := range n.steps {
		switch {
		case s.imp != nil:
			if _, err := runImport(st.clientTo, ctl, s.imp, rec); err != nil {
				return fmt.Errorf("step %d import %s: %w", i, s.imp.begin.Table, err)
			}
		case s.exportSQL != "":
			_, rows, err := runExport(st.clientTo, ctl, s.exportSQL, 1, rec)
			if err != nil {
				return fmt.Errorf("step %d export: %w", i, err)
			}
			n.exportRows = append(n.exportRows, rows)
		case s.stream != nil:
			if _, err := runStream(ctl, s.stream, s.deltas, rec); err != nil {
				return fmt.Errorf("step %d stream: %w", i, err)
			}
		default:
			if err := runSQL(ctl, s.sql); err != nil {
				return fmt.Errorf("step %d .run: %w", i, err)
			}
		}
	}
	// Read every manifest table back through the legacy export path.
	n.readBack = n.readBack[:0]
	for _, e := range n.sc.Expect {
		_, rows, err := runExport(st.clientTo, ctl, "select * from "+e.Table, 1, rec)
		if err != nil {
			return fmt.Errorf("reading back %s: %w", e.Table, err)
		}
		n.readBack = append(n.readBack, rows)
	}
	return nil
}

// check verifies the scenario's scrub.Expectation manifest — target row
// counts as read back through etlvirtd, error-table row counts and every
// domain predicate directly on cdwd — plus the scenario exports' row counts.
func (n *nightlyMix) check(st *stack) error {
	i := 0
	for _, s := range n.steps {
		if s.exportSQL == "" {
			continue
		}
		if n.exportRows[i] != s.exportRows {
			return fmt.Errorf("export %d returned %d rows, manifest says %d", i, n.exportRows[i], s.exportRows)
		}
		i++
	}
	for i, e := range n.sc.Expect {
		if e.Rows >= 0 && n.readBack[i] != e.Rows {
			return fmt.Errorf("%s read back %d rows, manifest says %d", e.Table, n.readBack[i], e.Rows)
		}
		for et, want := range e.ErrRows {
			if got, err := st.count("SELECT COUNT(*) FROM " + et); err != nil {
				return err
			} else if got != want {
				return fmt.Errorf("%s holds %d rows, manifest says %d", et, got, want)
			}
		}
		for _, pred := range e.Domains {
			q, err := sqlxlate.DomainAuditQuery(e.Table, pred)
			if err != nil {
				return err
			}
			if got, err := st.count(q); err != nil {
				return err
			} else if got != 0 {
				return fmt.Errorf("%d rows of %s violate %q", got, e.Table, pred)
			}
		}
	}
	return nil
}

func (n *nightlyMix) reset(st *stack) error {
	stmts := []string{"DELETE FROM etl_stage.stream_checkpoints"}
	for i, t := range n.tables {
		stmts = append(stmts, "DROP TABLE "+t, n.sc.DDL[i])
	}
	return st.exec(stmts...)
}

func (n *nightlyMix) finish(*stack, *recorder) error { return nil }

func (n *nightlyMix) replays() []replayInput {
	var out []replayInput
	for _, s := range n.steps {
		if s.imp != nil {
			out = append(out, s.imp.replay())
		}
	}
	return out
}
