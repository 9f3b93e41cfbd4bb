package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"etlvirt/internal/stream"
)

// TestCDCOracle replays the generated deltas onto an independent model of
// the table and checks it against the generator's last-image-per-key
// oracle, the op rules (insert only absent keys, update and delete only
// live ones) and the op mix.
func TestCDCOracle(t *testing.T) {
	c, err := newCDCUpsert(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]string{}
	for k := 0; k < cdcKeys; k++ {
		table[cdcKey(k)] = cdcPrefill(k)
	}
	ops := map[stream.Op]int{}
	for i := 0; i < 20000; i++ {
		d := c.draw()
		id, img, _ := strings.Cut(strings.TrimSuffix(string(d.record), "\n"), "|")
		_, live := table[id]
		ops[d.op]++
		switch {
		case d.op == stream.OpInsert && !live, d.op == stream.OpUpdate && live:
			table[id] = img
		case d.op == stream.OpDelete && live:
			delete(table, id)
		default:
			t.Fatalf("delta %d: %s on key %s (live %v)", i+1, d.op, id, live)
		}
	}
	if len(table) != len(c.images) {
		t.Fatalf("model has %d keys, oracle %d", len(table), len(c.images))
	}
	for k, v := range table {
		if c.images[k] != v {
			t.Fatalf("key %s is %q in the model, %q in the oracle", k, v, c.images[k])
		}
	}
	total := float64(ops[stream.OpInsert] + ops[stream.OpUpdate] + ops[stream.OpDelete])
	for op, want := range map[stream.Op]float64{stream.OpUpdate: 0.8, stream.OpInsert: 0.1, stream.OpDelete: 0.1} {
		if got := float64(ops[op]) / total; got < want-0.03 || got > want+0.03 {
			t.Errorf("op %s is %.3f of deltas, want about %.2f", op, got, want)
		}
	}
}

// TestCDCCheck reads the table back at a watermark inside the generated
// deltas: the check must accept exactly the images committed by then and
// reject a changed image or a missing key.
func TestCDCCheck(t *testing.T) {
	c, err := newCDCUpsert(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]string{}
	for k := 0; k < cdcKeys; k++ {
		table[cdcKey(k)] = cdcPrefill(k)
	}
	const committed = 600
	for i := 1; i <= 1000; i++ {
		d := c.draw()
		if i > committed {
			continue
		}
		id, img, _ := strings.Cut(strings.TrimSuffix(string(d.record), "\n"), "|")
		if d.op == stream.OpDelete {
			delete(table, id)
		} else {
			table[id] = img
		}
	}
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var export bytes.Buffer
	for _, k := range keys {
		export.WriteString(k + "|" + table[k] + "\n")
	}
	good := export.Bytes()
	c.readAt = committed

	c.exported = bytes.Replace(good, []byte("|"), []byte("|x"), 1)
	if err := c.check(nil); err == nil {
		t.Error("changed image accepted")
	}
	c.exported = good[:bytes.LastIndexByte(good[:len(good)-1], '\n')+1]
	if err := c.check(nil); err == nil {
		t.Error("missing key accepted")
	}
	c.exported = good
	if err := c.check(nil); err != nil {
		t.Fatalf("table at watermark %d rejected: %v", committed, err)
	}
	if len(c.pending) != 1000-committed {
		t.Errorf("%d deltas pending after the check, want %d", len(c.pending), 1000-committed)
	}
}

// TestDirtyLoadOracle checks the dirty input carries exactly the injected
// error counts and that the predicted outcome adds up.
func TestDirtyLoadOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		b, err := newDirtyLoad(seed, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if b.wantET != 30 || b.wantUV != 15 || b.wantInserted != 3000-45 {
			t.Errorf("seed %d: predicted inserted/ET/UV %d/%d/%d, want 2955/30/15", seed, b.wantInserted, b.wantET, b.wantUV)
		}
	}
}
