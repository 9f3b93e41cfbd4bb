package main

import (
	"bufio"
	"encoding/gob"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"etlvirt/internal/wire"
)

// proxy is the TCP plumbing both relays share: accept, dial the target,
// run one goroutine per direction, and on close tear every connection down
// and wait for the goroutines.
type proxy struct {
	ln     net.Listener
	target string
	serve  func(id int, client, upstream net.Conn)

	mu    sync.Mutex
	conns []net.Conn
	next  int
	wg    sync.WaitGroup
}

func startProxy(target string, serve func(id int, client, upstream net.Conn)) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln, target: target, serve: serve}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		id := p.next
		p.next++
		p.conns = append(p.conns, c, up)
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(id, c, up)
		}()
	}
}

func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// both runs the two directions of one relayed connection and closes both
// ends once either direction ends.
func both(client, upstream net.Conn, up, down func()) {
	var wg sync.WaitGroup
	wg.Add(2)
	for _, f := range []func(){up, down} {
		f := f
		go func() {
			defer wg.Done()
			f()
			client.Close()
			upstream.Close()
		}()
	}
	wg.Wait()
}

// capture records the bytes a frame reader consumes, so the relay forwards
// exactly the bytes it received.
type capture struct {
	r   io.Reader
	buf []byte
}

func (c *capture) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.buf = append(c.buf, p[:n]...)
	return n, err
}

// exchange is one request/response pair on a legacy-protocol session, timed
// at the relay: start is when the request's last byte arrived, end when the
// terminal response's last byte did.
type exchange struct {
	session   int
	req, resp wire.Kind
	start     time.Time
	end       time.Time
	job       uint64 // job or stream ID, when the pair names one
	seq       uint64 // chunk or frame sequence
	count     uint32 // records carried by the chunk, frame or export chunk
	committed uint64 // DeltaAck.CommittedSeq
}

type pending struct {
	kind  wire.Kind
	at    time.Time
	job   uint64
	seq   uint64
	count uint32
}

// wireRelay sits between the load generator and etlvirtd and pairs every
// request with its response per session.
type wireRelay struct {
	*proxy
	mu  sync.Mutex
	log []exchange
}

func newWireRelay(target string) (*wireRelay, error) {
	r := &wireRelay{}
	p, err := startProxy(target, r.serve)
	if err != nil {
		return nil, err
	}
	r.proxy = p
	return r, nil
}

func (r *wireRelay) serve(id int, client, upstream net.Conn) {
	var mu sync.Mutex
	var queue []pending
	both(client, upstream, func() {
		forwardFrames(client, upstream, func(m wire.Message, at time.Time) {
			p, ok := requestOf(m, at)
			if !ok {
				return
			}
			mu.Lock()
			queue = append(queue, p)
			mu.Unlock()
		})
	}, func() {
		forwardFrames(upstream, client, func(m wire.Message, at time.Time) {
			if k := m.Kind(); k == wire.KindRecordHeader || k == wire.KindRecords {
				return // a result set continues until EndStatement
			}
			mu.Lock()
			if len(queue) == 0 {
				mu.Unlock()
				return
			}
			p := queue[0]
			queue = queue[1:]
			mu.Unlock()
			r.record(pairOf(id, p, m, at))
		})
	})
}

func (r *wireRelay) record(e exchange) {
	r.mu.Lock()
	r.log = append(r.log, e)
	r.mu.Unlock()
}

// take returns and clears the exchanges recorded so far.
func (r *wireRelay) take() []exchange {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.log
	r.log = nil
	return out
}

// forwardFrames relays frames from src to dst unchanged and reports each
// decoded message with the time its last byte arrived.
func forwardFrames(src io.Reader, dst io.Writer, observe func(wire.Message, time.Time)) {
	c := &capture{r: src}
	for {
		c.buf = c.buf[:0]
		f, err := wire.ReadFrame(c)
		if err != nil {
			return
		}
		// Record before forwarding, so a response is on the log by the time
		// the client can see it.
		at := time.Now()
		if m, err := wire.Decode(f); err == nil {
			observe(m, at)
		}
		if _, err := dst.Write(c.buf); err != nil {
			return
		}
	}
}

// requestOf turns a client frame into a pending request. Logoff has no
// response and is not tracked.
func requestOf(m wire.Message, at time.Time) (pending, bool) {
	p := pending{kind: m.Kind(), at: at}
	switch v := m.(type) {
	case *wire.Logoff:
		return p, false
	case *wire.AttachLoad:
		p.job = v.JobID
	case *wire.DataChunk:
		p.job, p.seq, p.count = v.JobID, v.Seq, v.Count
	case *wire.EndAcquire:
		p.job = v.JobID
	case *wire.ApplyDML:
		p.job = v.JobID
	case *wire.EndLoad:
		p.job = v.JobID
	case *wire.ExportChunkRq:
		p.job, p.seq = v.JobID, v.Seq
	case *wire.EndExport:
		p.job = v.JobID
	case *wire.DeltaFrame:
		p.job, p.seq, p.count = v.StreamID, v.FirstSeq, v.Count
	case *wire.EndStream:
		p.job = v.StreamID
	case *wire.TraceSpans:
		p.job = v.JobID
	}
	return p, true
}

// pairOf completes a pending request with its terminal response.
func pairOf(session int, p pending, m wire.Message, at time.Time) exchange {
	e := exchange{session: session, req: p.kind, resp: m.Kind(), start: p.at, end: at,
		job: p.job, seq: p.seq, count: p.count}
	switch v := m.(type) {
	case *wire.LoadOK:
		e.job = v.JobID
	case *wire.ExportOK:
		e.job = v.JobID
	case *wire.StreamOK:
		e.job = v.StreamID
	case *wire.ExportChunk:
		e.count = v.Count
	case *wire.DeltaAck:
		e.committed = v.CommittedSeq
	case *wire.StreamDone:
		e.committed = v.Watermark
	}
	return e
}

// cdwStmt is one etlvirtd→cdwd round trip seen by the cdwnet relay: start is
// when the request arrived, end when the last response message left.
type cdwStmt struct {
	sql     string
	class   string
	start   time.Time
	end     time.Time
	engine  time.Duration
	errCode int
	bytes   int64
}

// Mirrors of the cdwnet gob messages, holding only the fields the relay
// reads; gob matches fields by name and skips the rest.
type gobRequest struct {
	SQL      string
	Describe string
}

type gobHeader struct {
	ErrCode     int
	HasRows     bool
	EngineNanos int64
}

type gobBatch struct {
	Last bool
}

// cdwRelay sits between etlvirtd and cdwd. It decodes each request's SQL
// and each response header's engine time and error code while passing the
// bytes through unchanged.
type cdwRelay struct {
	*proxy
	mu  sync.Mutex
	log []cdwStmt
}

func newCDWRelay(target string) (*cdwRelay, error) {
	r := &cdwRelay{}
	p, err := startProxy(target, r.serve)
	if err != nil {
		return nil, err
	}
	r.proxy = p
	return r, nil
}

// gobStream reads one gob message at a time from a connection and returns
// exactly the bytes it took, so the relay can look at a message and then
// forward it unchanged. Being an io.ByteReader keeps gob.Decoder from
// reading ahead past the message.
type gobStream struct {
	r   *bufio.Reader
	buf []byte
	dec *gob.Decoder
}

func newGobStream(c net.Conn) *gobStream {
	s := &gobStream{r: bufio.NewReader(c)}
	s.dec = gob.NewDecoder(s)
	return s
}

func (s *gobStream) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.buf = append(s.buf, p[:n]...)
	return n, err
}

func (s *gobStream) ReadByte() (byte, error) {
	b, err := s.r.ReadByte()
	if err == nil {
		s.buf = append(s.buf, b)
	}
	return b, err
}

// next decodes one message into v and returns its bytes, valid until the
// following call.
func (s *gobStream) next(v any) ([]byte, error) {
	s.buf = s.buf[:0]
	err := s.dec.Decode(v)
	return s.buf, err
}

// serve relays one etlvirtd→cdwd connection. Each statement is logged
// before the last message of its response is forwarded, so it is on the log
// by the time etlvirtd can act on the result.
func (r *cdwRelay) serve(_ int, client, upstream net.Conn) {
	reqs := make(chan cdwStmt, 1) // cdwnet is synchronous per connection
	both(client, upstream, func() {
		defer close(reqs)
		in := newGobStream(client)
		for {
			var req gobRequest
			b, err := in.next(&req)
			if err != nil {
				return
			}
			s := cdwStmt{start: time.Now(), sql: req.SQL, class: classify(req.SQL), bytes: int64(len(b))}
			if req.Describe != "" {
				s.sql, s.class = "DESCRIBE "+req.Describe, "select"
			}
			reqs <- s
			if _, err := upstream.Write(b); err != nil {
				return
			}
		}
	}, func() {
		in := newGobStream(upstream)
		for s := range reqs {
			var hdr gobHeader
			b, err := in.next(&hdr)
			if err != nil {
				return
			}
			s.bytes += int64(len(b))
			for last := !hdr.HasRows || hdr.ErrCode != 0; !last; {
				if _, err := client.Write(b); err != nil {
					return
				}
				var batch gobBatch
				if b, err = in.next(&batch); err != nil {
					return
				}
				s.bytes += int64(len(b))
				last = batch.Last
			}
			s.end = time.Now()
			s.engine = time.Duration(hdr.EngineNanos)
			s.errCode = hdr.ErrCode
			r.mu.Lock()
			r.log = append(r.log, s)
			r.mu.Unlock()
			if _, err := client.Write(b); err != nil {
				return
			}
		}
	})
}

// take returns and clears the statements recorded so far.
func (r *cdwRelay) take() []cdwStmt {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.log
	r.log = nil
	return out
}

// cdwClasses are the statement classes the cdw layer is reported by.
var cdwClasses = []string{"copy", "insert", "update", "delete", "select", "ddl", "errlog"}

// classify maps a CDW statement to its class; errlog is an INSERT into an
// error table (*_ET or *_UV).
func classify(sql string) string {
	s := strings.TrimSpace(sql)
	word := s
	if i := strings.IndexAny(s, " \t\n("); i >= 0 {
		word = s[:i]
	}
	switch strings.ToUpper(word) {
	case "COPY":
		return "copy"
	case "INSERT":
		f := strings.Fields(s)
		if len(f) >= 3 {
			t := strings.ToUpper(strings.Trim(f[2], `"(`))
			if i := strings.IndexByte(t, '('); i >= 0 {
				t = t[:i]
			}
			t = strings.TrimSuffix(t, `"`)
			if strings.HasSuffix(t, "_ET") || strings.HasSuffix(t, "_UV") {
				return "errlog"
			}
		}
		return "insert"
	case "UPDATE":
		return "update"
	case "DELETE":
		return "delete"
	case "SELECT", "WITH":
		return "select"
	}
	return "ddl"
}
