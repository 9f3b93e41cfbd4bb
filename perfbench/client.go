package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"etlvirt/internal/ltype"
	"etlvirt/internal/stream"
	"etlvirt/internal/wire"
)

// The load generator speaks the legacy protocol itself, on the public wire
// API, so it can time every chunk, frame and acknowledgment.

// chunk is one DataChunk's worth of input records.
type chunk struct {
	seq      uint64
	firstRow uint64
	count    uint32
	payload  []byte
}

// splitChunks splits an input file into chunks of at most per records,
// keeping record boundaries (vartext lines or length-prefixed indicator
// records).
func splitChunks(data []byte, format wire.DataFormat, per int) ([]chunk, int64, error) {
	var out []chunk
	var rows int64
	add := func(payload []byte, n int) {
		out = append(out, chunk{seq: uint64(len(out)), firstRow: uint64(rows + 1), count: uint32(n), payload: payload})
		rows += int64(n)
	}
	switch format {
	case wire.FormatVartext:
		lines := ltype.SplitVartextLines(data)
		for i := 0; i < len(lines); i += per {
			end := min(i+per, len(lines))
			var p []byte
			for _, l := range lines[i:end] {
				p = append(append(p, l...), '\n')
			}
			add(p, end-i)
		}
	case wire.FormatIndicator:
		rest := data
		for len(rest) > 0 {
			n, size := 0, 0
			for n < per && size < len(rest) {
				if len(rest)-size < 2 {
					return nil, 0, fmt.Errorf("truncated indicator record")
				}
				size += 2 + int(binary.BigEndian.Uint16(rest[size:])) + 1
				if size > len(rest) {
					return nil, 0, fmt.Errorf("truncated indicator record")
				}
				n++
			}
			add(rest[:size], n)
			rest = rest[size:]
		}
	default:
		return nil, 0, fmt.Errorf("unknown data format %d", format)
	}
	return out, rows, nil
}

// delta is one CDC change: an op marker and a full-row image with its record
// framing.
type delta struct {
	op     stream.Op
	record []byte
}

// recorder accumulates the client-side observations of the timed window.
type recorder struct {
	ingestRows, exportRows int64
	ingestWall, exportWall time.Duration
	blocks                 int64         // import, export and stream blocks completed
	unitWall               time.Duration // summed wall clock of timed units
	commitMS               []sample      // per-row send → durable-ack latency
	commitEvents           int64         // acknowledgments that made rows durable
	deltasPerCommit        []float64     // stream commits only
	rowErrors              int64         // ET + UV rows reported by imports
	jobs                   []jobTiming   // client-observed job windows, for the ledger
}

// jobTiming is one client-observed job window, used to check the relay
// ledger. A stream kept open across units counts one window per unit.
type jobTiming struct {
	kind       string
	start, end time.Time
}

// ingest accounts rows sent by an import or stream and the wall clock spent
// sending and committing them.
func (r *recorder) ingest(start, end time.Time, rows int64) {
	r.ingestRows += rows
	r.ingestWall += end.Sub(start)
}

// export accounts rows received by an export and its wall clock.
func (r *recorder) export(start, end time.Time, rows int64) {
	r.exportRows += rows
	r.exportWall += end.Sub(start)
}

// job records one client-observed job window for the ledger check.
func (r *recorder) job(kind string, start, end time.Time) {
	r.jobs = append(r.jobs, jobTiming{kind: kind, start: start, end: end})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// session is one logged-on legacy connection.
type session struct {
	*wire.Conn
}

func dialSession(addr string) (*session, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := c.Send(0, &wire.Logon{Host: addr, User: "bench", Password: "bench"}); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := c.Expect(wire.KindLogonOK); err != nil {
		c.Close()
		return nil, fmt.Errorf("logon: %w", err)
	}
	return &session{c}, nil
}

func (s *session) close() {
	_ = s.Send(0, &wire.Logoff{}) // the connection closes either way
	s.Close()
}

// importSpec is one import job.
type importSpec struct {
	begin  wire.BeginLoad
	label  string
	dml    string
	chunks []chunk
	rows   int64
}

// importOut is what the server reported for an import.
type importOut struct {
	staged, dataErrors           int64
	inserted, errorsET, errorsUV int64
}

// runImport drives one import job: BeginLoad on the control session, the
// chunks over begin.Sessions data sessions with per-session synchronous
// acks, EndAcquire, ApplyDML and EndLoad. Every row's commit latency is
// LoadDone's arrival minus the send time of its chunk.
func runImport(addr string, ctl *session, spec *importSpec, rec *recorder) (importOut, error) {
	var out importOut
	start := time.Now()
	begin := spec.begin
	if err := ctl.Send(0, &begin); err != nil {
		return out, err
	}
	m, err := ctl.Expect(wire.KindLoadOK)
	if err != nil {
		return out, fmt.Errorf("begin load: %w", err)
	}
	job := m.(*wire.LoadOK).JobID

	sentAt := make([]time.Time, len(spec.chunks))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, begin.Sessions)
	for s := 0; s < int(begin.Sessions); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = sendChunks(addr, job, s, spec.chunks, &next, sentAt)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}

	if err := ctl.Send(0, &wire.EndAcquire{JobID: job}); err != nil {
		return out, err
	}
	if m, err = ctl.Expect(wire.KindAcquireDone); err != nil {
		return out, fmt.Errorf("acquisition: %w", err)
	}
	ad := m.(*wire.AcquireDone)
	out.staged, out.dataErrors = int64(ad.RowsStaged), int64(ad.DataErrors)
	if err := ctl.Send(0, &wire.ApplyDML{JobID: job, Label: spec.label, SQL: spec.dml}); err != nil {
		return out, err
	}
	if m, err = ctl.Expect(wire.KindApplyResult); err != nil {
		return out, fmt.Errorf("apply: %w", err)
	}
	ar := m.(*wire.ApplyResult)
	out.inserted = int64(ar.Inserted)
	out.errorsET = int64(ar.ErrorsET) + out.dataErrors
	out.errorsUV = int64(ar.ErrorsUV)
	if err := ctl.Send(0, &wire.EndLoad{JobID: job}); err != nil {
		return out, err
	}
	if _, err := ctl.Expect(wire.KindLoadDone); err != nil {
		return out, fmt.Errorf("end load: %w", err)
	}
	end := time.Now()
	for i, c := range spec.chunks {
		rec.commitMS = append(rec.commitMS, sample{v: ms(end.Sub(sentAt[i])), w: float64(c.count)})
	}
	rec.commitEvents++
	rec.rowErrors += out.errorsET + out.errorsUV
	rec.ingest(start, end, spec.rows)
	rec.job("import", start, end)
	rec.blocks++
	return out, nil
}

func sendChunks(addr string, job uint64, seq int, chunks []chunk, next *atomic.Int64, sentAt []time.Time) error {
	dc, err := dialSession(addr)
	if err != nil {
		return err
	}
	defer dc.close()
	if err := dc.Send(0, &wire.AttachLoad{JobID: job, SessionSeq: uint16(seq)}); err != nil {
		return err
	}
	if _, err := dc.Expect(wire.KindAttachOK); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	for {
		i := next.Add(1) - 1
		if i >= int64(len(chunks)) {
			return nil
		}
		c := chunks[i]
		sentAt[i] = time.Now()
		if err := dc.Send(0, &wire.DataChunk{JobID: job, Seq: c.seq, FirstRow: c.firstRow, Count: c.count, Payload: c.payload}); err != nil {
			return err
		}
		m, err := dc.Expect(wire.KindChunkAck)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", c.seq, err)
		}
		if got := m.(*wire.ChunkAck).Seq; got != c.seq {
			return fmt.Errorf("ack for chunk %d, sent %d", got, c.seq)
		}
	}
}

// runExport drives one export job over sessions fetch sessions and returns
// the concatenated result records in order.
func runExport(addr string, ctl *session, sql string, sessions int, rec *recorder) ([]byte, int64, error) {
	start := time.Now()
	if err := ctl.Send(0, &wire.BeginExport{SQL: sql, Sessions: uint16(sessions), Format: wire.FormatVartext, Delim: '|'}); err != nil {
		return nil, 0, err
	}
	m, err := ctl.Expect(wire.KindExportOK)
	if err != nil {
		return nil, 0, fmt.Errorf("begin export: %w", err)
	}
	job := m.(*wire.ExportOK).JobID

	var mu sync.Mutex
	got := map[uint64]*wire.ExportChunk{}
	var eof atomic.Int64
	eof.Store(-1)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fetchChunks(addr, job, &next, &eof, func(c *wire.ExportChunk) {
				mu.Lock()
				got[c.Seq] = c
				mu.Unlock()
			})
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	var data []byte
	var rows int64
	for seq := uint64(0); int64(seq) <= eof.Load(); seq++ {
		if c, ok := got[seq]; ok {
			data = append(data, c.Payload...)
			rows += int64(c.Count)
		}
	}
	if err := ctl.Send(0, &wire.EndExport{JobID: job}); err != nil {
		return nil, 0, err
	}
	if _, err := ctl.Expect(wire.KindLoadDone); err != nil {
		return nil, 0, fmt.Errorf("end export: %w", err)
	}
	end := time.Now()
	rec.export(start, end, rows)
	rec.job("export", start, end)
	rec.blocks++
	return data, rows, nil
}

func fetchChunks(addr string, job uint64, next, eof *atomic.Int64, keep func(*wire.ExportChunk)) error {
	ec, err := dialSession(addr)
	if err != nil {
		return err
	}
	defer ec.close()
	for {
		seq := next.Add(1) - 1
		if e := eof.Load(); e >= 0 && seq > e {
			return nil
		}
		if err := ec.Send(0, &wire.ExportChunkRq{JobID: job, Seq: uint64(seq)}); err != nil {
			return err
		}
		m, err := ec.Expect(wire.KindExportChunk)
		if err != nil {
			return fmt.Errorf("export chunk %d: %w", seq, err)
		}
		c := m.(*wire.ExportChunk)
		keep(c)
		if c.EOF {
			for {
				cur := eof.Load()
				if (cur >= 0 && cur <= seq) || eof.CompareAndSwap(cur, seq) {
					return nil
				}
			}
		}
	}
}

// openStream is a stream kept open on its control session. Frames go out
// closed-loop: the next frame only after the previous DeltaAck, sized by the
// server's latest BatchHint.
type openStream struct {
	ctl       *session
	id        uint64
	resume    uint64 // watermark the stream resumed from
	hint      int
	committed uint64 // latest CommittedSeq seen
	sent      uint64 // sequence of the last delta sent
	inflight  []sentFrame
	payload   []byte
}

type sentFrame struct {
	hi uint64
	n  int
	at time.Time
}

func beginStream(ctl *session, begin *wire.BeginStream) (*openStream, error) {
	if err := ctl.Send(0, begin); err != nil {
		return nil, err
	}
	m, err := ctl.Expect(wire.KindStreamOK)
	if err != nil {
		return nil, fmt.Errorf("begin stream: %w", err)
	}
	ok := m.(*wire.StreamOK)
	s := &openStream{ctl: ctl, id: ok.StreamID, resume: ok.ResumeSeq, committed: ok.ResumeSeq,
		sent: ok.ResumeSeq, hint: int(ok.BatchHint)}
	if s.hint <= 0 {
		s.hint = 64
	}
	return s, nil
}

// settle records the commit latency of every frame an acknowledgment
// arriving at made durable: its arrival minus the frame's send time, per delta.
func (s *openStream) settle(upTo uint64, at time.Time, rec *recorder) {
	if upTo <= s.committed {
		return
	}
	rec.commitEvents++
	rec.deltasPerCommit = append(rec.deltasPerCommit, float64(upTo-s.committed))
	s.committed = upTo
	for len(s.inflight) > 0 && s.inflight[0].hi <= upTo {
		rec.commitMS = append(rec.commitMS, sample{v: ms(at.Sub(s.inflight[0].at)), w: float64(s.inflight[0].n)})
		s.inflight = s.inflight[1:]
	}
}

// sendFrame sends deltas as one frame whose first sequence number is seq
// and waits for its ack.
func (s *openStream) sendFrame(seq uint64, deltas []delta, rec *recorder) error {
	s.payload = s.payload[:0]
	for _, d := range deltas {
		s.payload = stream.AppendDelta(s.payload, d.op, d.record)
	}
	at := time.Now()
	if err := s.ctl.Send(0, &wire.DeltaFrame{StreamID: s.id, FirstSeq: seq, Count: uint32(len(deltas)), Payload: s.payload}); err != nil {
		return err
	}
	s.sent = seq + uint64(len(deltas)) - 1
	s.inflight = append(s.inflight, sentFrame{hi: s.sent, n: len(deltas), at: at})
	m, err := s.ctl.Expect(wire.KindDeltaAck)
	if err != nil {
		return fmt.Errorf("delta frame %d: %w", seq, err)
	}
	ack := m.(*wire.DeltaAck)
	if ack.Seq != seq {
		return fmt.Errorf("ack for frame %d, sent %d", ack.Seq, seq)
	}
	s.settle(ack.CommittedSeq, time.Now(), rec)
	if h := int(ack.BatchHint); h > 0 {
		s.hint = h
	}
	return nil
}

// end flushes and closes the stream; the EndStream round trip carries the
// final commit and counts as ingest time.
func (s *openStream) end(rec *recorder) (*wire.StreamDone, error) {
	start := time.Now()
	if err := s.ctl.Send(0, &wire.EndStream{StreamID: s.id}); err != nil {
		return nil, err
	}
	m, err := s.ctl.Expect(wire.KindStreamDone)
	if err != nil {
		return nil, fmt.Errorf("end stream: %w", err)
	}
	end := time.Now()
	done := m.(*wire.StreamDone)
	s.settle(done.Watermark, end, rec)
	rec.ingest(start, end, 0)
	rec.blocks++
	return done, nil
}

// runStream drives one whole stream block with deltas numbered from 1.
func runStream(ctl *session, begin *wire.BeginStream, deltas []delta, rec *recorder) (*wire.StreamDone, error) {
	start := time.Now()
	s, err := beginStream(ctl, begin)
	if err != nil {
		return nil, err
	}
	sendStart := time.Now()
	for i := int(s.resume); i < len(deltas); {
		n := min(s.hint, len(deltas)-i)
		if err := s.sendFrame(uint64(i+1), deltas[i:i+n], rec); err != nil {
			return nil, err
		}
		i += n
	}
	rec.ingest(sendStart, time.Now(), int64(len(deltas))-int64(s.resume))
	done, err := s.end(rec)
	if err != nil {
		return nil, err
	}
	rec.job("stream", start, time.Now())
	return done, nil
}

// runSQL executes one ad-hoc statement on the control session.
func runSQL(ctl *session, sql string) error {
	if err := ctl.Send(0, &wire.RunSQL{SQL: sql}); err != nil {
		return err
	}
	for {
		m, _, err := ctl.Recv()
		if err != nil {
			return err
		}
		switch v := m.(type) {
		case *wire.StmtSuccess, *wire.EndStatement:
			return nil
		case *wire.Failure:
			return v
		}
	}
}
