package core

import (
	"fmt"
	"strings"
	"testing"

	"etlvirt/internal/sqlparse"
)

// allocLane builds the minimal stagingLane shape copySQL reads: the staging
// table name and the object-store prefix.
func allocLane() *stagingLane {
	return &stagingLane{
		table:  sqlparse.TableName{Schema: "etlvirt_stage", Name: "job42"},
		prefix: "job42/",
	}
}

func manifestFiles(n int) []string {
	files := make([]string, n)
	for i := range files {
		files[i] = fmt.Sprintf("part-%05d.csv.gz", i)
	}
	return files
}

// TestTakeBatchAllocFree pins the copy-scheduler hot path at zero
// allocations: splitting the next manifest batch off the pending list is
// pure reslicing.
func TestTakeBatchAllocFree(t *testing.T) {
	pending := manifestFiles(64)
	var batch, rest []string
	allocs := testing.AllocsPerRun(200, func() {
		rest = pending
		for len(rest) > 0 {
			batch, rest = takeBatch(rest, 4)
		}
	})
	if allocs != 0 {
		t.Errorf("takeBatch allocates %.1f times per drain, want 0", allocs)
	}
	_ = batch
}

// TestTakeBatchClamping covers the batch-size edges: a non-positive or
// oversized n degrades to a usable batch instead of panicking, and the batch
// slice is capacity-capped so appends to rest can never alias into it.
func TestTakeBatchClamping(t *testing.T) {
	pending := manifestFiles(3)
	batch, rest := takeBatch(pending, 0)
	if len(batch) != 1 || len(rest) != 2 {
		t.Errorf("n=0: batch %d rest %d, want 1/2", len(batch), len(rest))
	}
	batch, rest = takeBatch(pending, 99)
	if len(batch) != 3 || len(rest) != 0 {
		t.Errorf("n=99: batch %d rest %d, want 3/0", len(batch), len(rest))
	}
	batch, rest = takeBatch(pending, 2)
	if cap(batch) != len(batch) {
		t.Errorf("batch cap %d exceeds len %d: appends to rest could corrupt it", cap(batch), len(batch))
	}
	_ = rest
}

// TestCopyManifestSQLAllocBound bounds the allocations of building one
// manifest COPY statement — the per-batch cost the scheduler pays on every
// issue while acquisition is running.
func TestCopyManifestSQLAllocBound(t *testing.T) {
	j := allocLane()
	files := manifestFiles(16)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := j.copySQL(files); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 64
	if allocs > bound {
		t.Errorf("copySQL(16 files) allocates %.1f times, want <= %d", allocs, bound)
	}
}

// TestCopySQLManifestShape pins the statement the lane issues: explicit
// FILES manifest, ordered format options, and no statement-level gzip (the
// engine sniffs per-file .gz suffixes on manifest COPYs).
func TestCopySQLManifestShape(t *testing.T) {
	j := allocLane()
	sql, err := j.copySQL([]string{"a.csv.gz", "b.csv.gz"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FILES", "'a.csv.gz'", "'b.csv.gz'", "store://job42/"} {
		if !strings.Contains(sql, want) {
			t.Errorf("manifest COPY %q missing %q", sql, want)
		}
	}
	if strings.Contains(strings.ToLower(sql), "gzip") {
		t.Errorf("manifest COPY %q should rely on per-file suffixes, not a gzip option", sql)
	}
}

// BenchmarkTakeBatch measures the scheduler's batch-split hot path.
func BenchmarkTakeBatch(b *testing.B) {
	pending := manifestFiles(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rest := pending
		for len(rest) > 0 {
			_, rest = takeBatch(rest, 4)
		}
	}
}

// BenchmarkCopyManifestSQL measures building the incremental COPY statement
// for one 16-file batch.
func BenchmarkCopyManifestSQL(b *testing.B) {
	j := allocLane()
	files := manifestFiles(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := j.copySQL(files); err != nil {
			b.Fatal(err)
		}
	}
}
