package core_test

import (
	"strings"
	"testing"

	"etlvirt/internal/core"
	"etlvirt/internal/etlclient"
	"etlvirt/internal/stream"
)

// TestStagingIgnoresLeftoverObjects puts a stale object under the upload
// prefix a fresh job is about to use, as an earlier incarnation of the node
// over a persistent store could leave behind. Both job kinds stage through
// manifest COPYs naming exactly the objects they uploaded, so each must land
// exactly its own rows and never the leftover's.
func TestStagingIgnoresLeftoverObjects(t *testing.T) {
	const stale = "1,999,Stale,2020-01-01\n" // staged CSV: __seq, then the layout's fields
	cases := []struct {
		name string
		key  string // leftover object, under the first job's prefix
		run  func(t *testing.T, st *stack)
		want string // target rows as CUST_ID:CUST_NAME, ordered by key
	}{
		{
			name: "stream",
			key:  "jobs/stream1/b0/ups/000001",
			run: func(t *testing.T, st *stack) {
				c := dialStream(t, st.addr)
				defer c.Close()
				ok := beginStream(t, c, "leftover_cdc", "")
				p := vtDelta(nil, stream.OpInsert, "100", "Alice", "2024-01-01")
				sendFrame(t, c, ok.StreamID, 1, 1, p)
				if done := endStream(t, c, ok.StreamID); done.Watermark != 1 || done.Inserted != 1 {
					t.Errorf("stream done: watermark %d inserted %d, want 1/1", done.Watermark, done.Inserted)
				}
			},
			want: "100:Alice",
		},
		{
			name: "import",
			key:  "jobs/1/stale-part-00000.csv",
			run: func(t *testing.T, st *stack) {
				input := "100|Alice|2024-01-01\n200|Bob|2024-01-02\n"
				res := runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": input}, etlclient.Options{})
				if len(res.Imports) != 1 || res.Imports[0].Inserted != 2 {
					t.Errorf("import result %+v, want one import inserting 2", res.Imports)
				}
			},
			want: "100:Alice 200:Bob",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := startStack(t, core.Config{})
			mustEng(t, st.eng, customerDDL)
			if err := st.store.Put(tc.key, strings.NewReader(stale)); err != nil {
				t.Fatal(err)
			}
			tc.run(t, st)
			res := mustEng(t, st.eng, "SELECT CUST_ID, CUST_NAME FROM PROD.CUSTOMER ORDER BY CUST_ID")
			var got []string
			for _, r := range res.Rows {
				got = append(got, r[0].S+":"+r[1].S)
			}
			if strings.Join(got, " ") != tc.want {
				t.Errorf("target rows %v, want %s", got, tc.want)
			}
		})
	}
}

// TestCopyBatchFilesCountBuckets lands one 2-file manifest and checks the
// files-per-COPY histogram counts it under le="2": the count layout resolves
// small manifests instead of folding them all into a first byte-size bucket.
func TestCopyBatchFilesCountBuckets(t *testing.T) {
	st := startStack(t, core.Config{FileWriters: 1, FileSizeThreshold: 1, CopyBatchFiles: 2})
	mustEng(t, st.eng, customerDDL)
	input := "100|Alice|2024-01-01\n200|Bob|2024-01-02\n300|Carol|2024-01-03\n400|Dave|2024-01-04\n"
	// Two 2-record chunks; the 1-byte rotation threshold makes each chunk
	// its own file.
	runScript(t, st.addr, example21Script(""), map[string]string{"input.txt": input},
		etlclient.Options{ChunkRecords: 2})
	dump := metricsDump(t, st.node)
	for le, want := range map[string]float64{"1": 0, "2": 1, "4": 1, "+Inf": 1} {
		name := `etlvirt_copy_batch_files_bucket{le="` + le + `"}`
		if got := metricValue(t, dump, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
