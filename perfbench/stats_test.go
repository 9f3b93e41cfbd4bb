package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestWeightedQuantile(t *testing.T) {
	ss := []sample{{v: 10, w: 1}, {v: 20, w: 8}, {v: 30, w: 1}}
	if got := weightedQuantile(ss, 0.5); got != 20 {
		t.Errorf("p50 = %v, want 20", got)
	}
	if got := weightedQuantile(ss, 0.95); got != 30 {
		t.Errorf("p95 = %v, want 30", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBusyUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{{at(0), at(10)}, {at(5), at(15)}, {at(20), at(30)}, {at(40), at(50)}}
	if got := busy(ivs, at(0), at(100)); got != 35*time.Millisecond {
		t.Errorf("union = %v, want 35ms", got)
	}
	if got := busy(ivs, at(12), at(45)); got != 18*time.Millisecond {
		t.Errorf("clipped union = %v, want 18ms", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		old, cur, iqr float64
		better        string
		want          string
	}{
		{100, 85, 2, "higher", "REGRESSION"},
		{100, 95, 2, "higher", "within bound"},
		{100, 115, 2, "higher", "improved"},
		{100, 115, 2, "lower", "REGRESSION"},
		{100, 85, 2, "lower", "improved"},
	} {
		if got := verdict(c.old, c.cur, c.iqr, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v→%v, %s) = %s, want %s", c.old, c.cur, c.better, got, c.want)
		}
	}
}

func TestCompareReadsResultSets(t *testing.T) {
	old := `load_export {"correct":true,"attempted":3,"failed":0,"metrics":{"ingest_rows_per_s":{"value":100,"unit":"1/s"}}}
load_export {"correct":true,"attempted":3,"failed":0,"metrics":{"ingest_rows_per_s":{"value":102,"unit":"1/s"}}}
`
	set, err := readResults(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if got := set["load_export"]["ingest_rows_per_s"]; len(got) != 2 || math.Abs(got[1]-102) > 0 {
		t.Errorf("parsed %v", got)
	}
	if _, err := readResults(strings.NewReader(`x {"correct":false,"attempted":1,"failed":1,"metrics":{}}`)); err == nil {
		t.Error("an incorrect run was accepted into a result set")
	}
}

func TestClassify(t *testing.T) {
	for sql, want := range map[string]string{
		"COPY etl_stage.s FROM 'store://x' FILES ('a')": "copy",
		"INSERT INTO BENCH.T SELECT * FROM s":           "insert",
		`INSERT INTO "BENCH"."T_ET" VALUES (1)`:         "errlog",
		"INSERT INTO BENCH.T_UV(K) VALUES (1)":          "errlog",
		"UPDATE t SET a = 1":                            "update",
		"DELETE FROM t USING s":                         "delete",
		"SELECT 1":                                      "select",
		"DROP TABLE IF EXISTS x":                        "ddl",
	} {
		if got := classify(sql); got != want {
			t.Errorf("classify(%q) = %s, want %s", sql, got, want)
		}
	}
}
