package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/cdwnet"
	"etlvirt/internal/cloudstore"
	"etlvirt/internal/ltype"
	"etlvirt/internal/wire"
)

// tap is a plain TCP forwarder that records every byte in each direction,
// to compare what enters and leaves a relay.
type tap struct {
	ln       net.Listener
	mu       sync.Mutex
	up, down bytes.Buffer
	wg       sync.WaitGroup
}

func newTap(t *testing.T, target string) *tap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{ln: ln}
	tp.wg.Add(1)
	go func() {
		defer tp.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			u, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				return
			}
			tp.wg.Add(2)
			cp := func(dst, src net.Conn, buf *bytes.Buffer) {
				defer tp.wg.Done()
				b := make([]byte, 4096)
				for {
					n, err := src.Read(b)
					if n > 0 {
						tp.mu.Lock()
						buf.Write(b[:n])
						tp.mu.Unlock()
						if _, werr := dst.Write(b[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				dst.Close()
				src.Close()
			}
			go cp(u, c, &tp.up)
			go cp(c, u, &tp.down)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		tp.wg.Wait()
	})
	return tp
}

func (tp *tap) bytes() (up, down []byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return append([]byte(nil), tp.up.Bytes()...), append([]byte(nil), tp.down.Bytes()...)
}

// TestCDWRelayClassifiesAndPassesThrough runs a client through
// tap → relay → tap → in-process cdwnet.Server and checks that the relay
// classifies each statement, decodes engine time and error codes, and
// forwards the byte streams unchanged in both directions.
func TestCDWRelayClassifiesAndPassesThrough(t *testing.T) {
	srv := cdwnet.NewServer(cdw.NewEngine(cloudstore.NewMemStore(), cdw.Options{}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inner := newTap(t, addr)
	relay, err := newCDWRelay(inner.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer relay.close()
	outer := newTap(t, relay.addr())

	c, err := cdwnet.Dial(outer.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stmts := []struct {
		sql, class string
		fails      bool
	}{
		{"CREATE TABLE s.t (K INTEGER NOT NULL, V VARCHAR(10), PRIMARY KEY (K))", "ddl", false},
		{"CREATE TABLE s.t_ET (K INTEGER, MSG VARCHAR(20))", "ddl", false},
		{"INSERT INTO s.t VALUES (1, 'a'), (2, 'b'), (3, 'c')", "insert", false},
		{"INSERT INTO s.missing VALUES (1, 'x')", "insert", true},
		{"INSERT INTO s.t_ET VALUES (1, 'bad')", "errlog", false},
		{"UPDATE s.t SET V = 'z' WHERE K = 2", "update", false},
		{"DELETE FROM s.t WHERE K = 3", "delete", false},
	}
	for _, s := range stmts {
		if _, err := c.Exec(s.sql); (err != nil) != s.fails {
			t.Fatalf("%s: err = %v, want failure %v", s.sql, err, s.fails)
		}
	}
	// A multi-batch result set: fetch size 1 makes one batch per row.
	cur, err := c.Query("SELECT K, V FROM s.t ORDER BY K", 1)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for {
		b, ok, err := cur.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += len(b)
	}
	cur.Close()
	if rows != 2 {
		t.Fatalf("query through the relay returned %d rows, want 2", rows)
	}
	if _, err := c.Describe("s.t"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	got := relay.take()
	if len(got) != len(stmts)+2 {
		t.Fatalf("relay recorded %d statements, want %d", len(got), len(stmts)+2)
	}
	for i, s := range stmts {
		g := got[i]
		if g.class != s.class || g.sql != s.sql {
			t.Errorf("statement %d: class %q sql %q, want %q %q", i, g.class, g.sql, s.class, s.sql)
		}
		if (g.errCode != 0) != s.fails {
			t.Errorf("statement %d: error code %d, want failure %v", i, g.errCode, s.fails)
		}
		if g.engine <= 0 || g.end.Before(g.start) || g.bytes <= 0 {
			t.Errorf("statement %d: engine %v, interval %v..%v, bytes %d", i, g.engine, g.start, g.end, g.bytes)
		}
	}
	if g := got[len(stmts)]; g.class != "select" || g.errCode != 0 {
		t.Errorf("query recorded as %+v", g)
	}
	if g := got[len(stmts)+1]; g.class != "select" || g.sql != "DESCRIBE s.t" {
		t.Errorf("describe recorded as %+v", g)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		ou, od := outer.bytes()
		iu, id := inner.bytes()
		if bytes.Equal(ou, iu) && bytes.Equal(od, id) {
			if len(ou) == 0 || len(od) == 0 {
				t.Fatal("no bytes seen")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay altered the streams: up %d→%d bytes, down %d→%d bytes", len(ou), len(iu), len(id), len(od))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fakeVirt answers the legacy protocol just enough to exercise pairing:
// chunk acks echo the sequence after a delay that depends on it, export
// chunks carry Seq+1 records, and RunSQL returns a header, records and
// EndStatement.
func fakeVirt(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				conn := wire.NewConn(c)
				for {
					m, _, err := conn.Recv()
					if err != nil {
						return
					}
					var replies []wire.Message
					switch v := m.(type) {
					case *wire.Logon:
						replies = []wire.Message{&wire.LogonOK{SessionID: 1}}
					case *wire.DataChunk:
						time.Sleep(time.Duration(v.Seq%3) * time.Millisecond)
						replies = []wire.Message{&wire.ChunkAck{Seq: v.Seq}}
					case *wire.ExportChunkRq:
						replies = []wire.Message{&wire.ExportChunk{JobID: v.JobID, Seq: v.Seq, Count: uint32(v.Seq + 1)}}
					case *wire.RunSQL:
						layout := &ltype.Layout{Name: "R", Fields: []ltype.Field{{Name: "X", Type: ltype.VarChar(1)}}}
						replies = []wire.Message{&wire.RecordHeader{Layout: layout}, &wire.Records{}, &wire.EndStatement{}}
					case *wire.Logoff:
						return
					}
					for _, r := range replies {
						if err := conn.Send(0, r); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestWireRelayPairsPerSession runs two sessions concurrently through the
// relay and checks that every request is paired with its own response on
// its own session.
func TestWireRelayPairsPerSession(t *testing.T) {
	relay, err := newWireRelay(fakeVirt(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess, err := dialSession(relay.addr())
			if err != nil {
				errs <- err
				return
			}
			defer sess.close()
			for i := 0; i < n; i++ {
				seq := uint64(s*1000 + i)
				var req wire.Message = &wire.DataChunk{JobID: uint64(s + 1), Seq: seq, Count: 7, Payload: []byte("x\n")}
				want := wire.KindChunkAck
				if i%4 == 3 {
					req, want = &wire.ExportChunkRq{JobID: uint64(s + 1), Seq: seq}, wire.KindExportChunk
				}
				if i%10 == 9 {
					req, want = &wire.RunSQL{SQL: "select 1"}, wire.KindRecordHeader
				}
				if err := sess.Send(0, req); err != nil {
					errs <- err
					return
				}
				if m, err := sess.Expect(want); err != nil {
					errs <- err
					return
				} else if ack, ok := m.(*wire.ChunkAck); ok && ack.Seq != seq {
					errs <- fmt.Errorf("ack for %d, sent %d", ack.Seq, seq)
					return
				}
				if want == wire.KindRecordHeader {
					if _, err := sess.Expect(wire.KindRecords); err != nil {
						errs <- err
						return
					}
					if _, err := sess.Expect(wire.KindEndStatement); err != nil {
						errs <- err
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	log := relay.take()
	relay.close()

	bySession := map[int][]exchange{}
	for _, e := range log {
		bySession[e.session] = append(bySession[e.session], e)
	}
	if len(bySession) != 2 {
		t.Fatalf("exchanges on %d sessions, want 2", len(bySession))
	}
	for sid, ex := range bySession {
		if len(ex) != n+1 { // the logon plus n requests
			t.Fatalf("session %d: %d exchanges, want %d", sid, len(ex), n+1)
		}
		if ex[0].req != wire.KindLogon || ex[0].resp != wire.KindLogonOK {
			t.Errorf("session %d: first pair %s→%s", sid, ex[0].req, ex[0].resp)
		}
		job := ex[1].job
		for i, e := range ex[1:] {
			seq := (job-1)*1000 + uint64(i)
			switch {
			case i%10 == 9:
				if e.req != wire.KindRunSQL || e.resp != wire.KindEndStatement {
					t.Errorf("session %d #%d: %s→%s, want RunSQL→EndStatement", sid, i, e.req, e.resp)
				}
			case i%4 == 3:
				if e.req != wire.KindExportChunkRq || e.resp != wire.KindExportChunk || e.seq != seq || e.count != uint32(seq+1) {
					t.Errorf("session %d #%d: %+v", sid, i, e)
				}
			default:
				if e.req != wire.KindDataChunk || e.resp != wire.KindChunkAck || e.seq != seq || e.job != job || e.count != 7 {
					t.Errorf("session %d #%d: %+v", sid, i, e)
				}
			}
			if e.end.Before(e.start) {
				t.Errorf("session %d #%d: response before request", sid, i)
			}
		}
	}
}
