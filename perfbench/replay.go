package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"etlvirt/internal/cloudstore"
	"etlvirt/internal/convert"
	"etlvirt/internal/fwriter"
	"etlvirt/internal/sqlparse"
	"etlvirt/internal/sqlxlate"
)

// replayBudget is the minimum time each replayed layer is timed for; short
// layers repeat their input until they reach it.
const replayBudget = 200 * time.Millisecond

// replayLayers runs the workload's own job inputs through the inner layers'
// public functions — convert, fwriter (node defaults), a cloudstore DirStore
// under work, and sqlxlate — and reports one throughput or cost per layer.
func replayLayers(inputs []replayInput, work string, put func(name, unit string, v float64)) error {
	// convert: ConvertInto over every chunk, into a recycled buffer as the
	// virtualizer does.
	type converted struct {
		csv  []byte
		rows int
	}
	var csvs []converted
	var rows, chunks int
	var convNS int64
	var mallocs uint64
	for _, in := range inputs {
		conv, err := convert.NewConverter(in.layout, in.format, in.delim, convert.Options{})
		if err != nil {
			return err
		}
		var buf []byte
		for _, c := range in.chunks { // first pass keeps the output for fwriter
			res, err := conv.Convert(c.payload, int64(c.firstRow))
			if err != nil {
				return fmt.Errorf("convert replay: %w", err)
			}
			csvs = append(csvs, converted{res.CSV, res.Rows})
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for reps := 0; reps == 0 || time.Since(start) < replayBudget/time.Duration(len(inputs)); reps++ {
			for _, c := range in.chunks {
				res, err := conv.ConvertInto(buf[:0], c.payload, int64(c.firstRow))
				if err != nil {
					return fmt.Errorf("convert replay: %w", err)
				}
				buf = res.CSV
				rows += int(c.count)
				chunks++
			}
		}
		convNS += time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
	}
	put("convert.ns_per_row", "ns", ratio(float64(convNS), float64(rows)))
	put("convert.allocs_per_chunk", "count", ratio(float64(mallocs), float64(chunks)))

	// fwriter: spool the converted CSV with the node's default rotation size.
	var fs *fwriter.MemFS
	var files []fwriter.FinishedFile
	var raw, written int64
	start := time.Now()
	for reps := 0; reps == 0 || time.Since(start) < replayBudget; reps++ {
		fs = fwriter.NewMemFS()
		w := fwriter.NewWriter(fs, fwriter.Config{NamePrefix: "replay"})
		for _, c := range csvs {
			if err := w.Write(c.csv, c.rows); err != nil {
				return err
			}
			raw += int64(len(c.csv))
		}
		var err error
		if files, err = w.Flush(); err != nil {
			return err
		}
	}
	fwNS := time.Since(start).Nanoseconds()
	var fileRows int64
	for _, f := range files {
		written += int64(f.Bytes)
		fileRows += int64(f.Rows)
	}
	put("fwriter.ns_per_byte", "ns", ratio(float64(fwNS), float64(raw)))
	put("fwriter.bytes_per_row", "bytes", ratio(float64(written), float64(fileRows)))

	// cloudstore: Put then Get every spooled file through a DirStore.
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := cloudstore.NewDirStore(dir)
	if err != nil {
		return err
	}
	var putNS, getNS, moved int64
	for reps := 0; reps == 0 || time.Duration(putNS+getNS) < replayBudget; reps++ {
		for i, f := range files {
			data, _ := fs.Bytes(f.Name)
			key := fmt.Sprintf("jobs/%d/%d", reps, i)
			t := time.Now()
			if err := ds.Put(key, bytes.NewReader(data)); err != nil {
				return err
			}
			putNS += time.Since(t).Nanoseconds()
			t = time.Now()
			r, err := ds.Get(key)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, r)
			r.Close()
			if err != nil {
				return err
			}
			getNS += time.Since(t).Nanoseconds()
			moved += int64(len(data))
		}
	}
	put("cloudstore.put_mb_per_s", "MB/s", ratio(float64(moved)/1e6, float64(putNS)/1e9))
	put("cloudstore.get_mb_per_s", "MB/s", ratio(float64(moved)/1e6, float64(getNS)/1e9))

	// sqlxlate: what a job's setup translates — staging DDL, error-table
	// DDL and the apply DML.
	stage := sqlparse.TableName{Schema: "etl_stage", Name: "replay"}
	var xlates int
	start = time.Now()
	for time.Since(start) < replayBudget || xlates == 0 {
		for _, in := range inputs {
			tr := &sqlxlate.Translator{Stage: stage, StageAlias: "s", Layout: in.layout}
			if _, err := sqlxlate.StagingDDL(stage, in.layout); err != nil {
				return err
			}
			if in.et != "" {
				if _, err := sqlxlate.ErrorTableDDL(sqlxlate.ScrubTableName(in.et)); err != nil {
					return err
				}
			}
			if _, err := tr.TranslateDML(in.dml); err != nil {
				return fmt.Errorf("translate replay: %w", err)
			}
			xlates++
		}
	}
	put("sqlxlate.translate_us", "us", ratio(float64(time.Since(start).Microseconds()), float64(xlates)))
	return nil
}
