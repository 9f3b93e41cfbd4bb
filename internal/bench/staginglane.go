package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"etlvirt/internal/cdw"
	"etlvirt/internal/core"
)

// StagingLaneRow is one configuration of the staging-lane comparison: the
// serialized baseline (one manifest COPY after acquisition drains) and the
// overlapped copy scheduler (incremental manifest COPYs while acquisition
// runs).
type StagingLaneRow struct {
	Name        string
	Times       PhaseTimes
	CopyBatches int64
}

// stagingLaneConfig is the shared shape of the comparison runs: enough rows
// and a small-enough spool threshold to produce a stream of intermediate
// files, gzip so COPY decompression is real work, and a per-statement CDW
// overhead standing in for the cloud round trip — the cost the overlap hides.
func stagingLaneConfig(scale int, node core.Config) RunConfig {
	node.Gzip = true
	node.FileSizeThreshold = 32 << 10
	node.FileWriters = 2
	return RunConfig{
		Workload:     Workload{Rows: 8 * scale, RowBytes: 500, Seed: 30},
		Node:         node,
		CDW:          cdw.Options{StmtOverhead: 2 * time.Millisecond},
		Sessions:     2,
		ChunkRecords: 200,
		// A mildly constrained uplink keeps acquisition long enough to hide
		// the incremental COPYs inside, without stretching it so far that
		// the hidden COPY work becomes a rounding error of the total.
		UplinkBytesPerSec: 16 << 20,
	}
}

// StagingLane runs the overlapped-vs-serialized comparison behind the
// staging-lane optimization: identical workload and stack, with only the
// files-per-COPY setting varied. The baseline sets it above any job's file
// count, so the scheduler holds every file until acquisition drains and
// lands them in one COPY.
func StagingLane(scale int) ([]StagingLaneRow, error) {
	if scale <= 0 {
		scale = RowsPerPaperMillion
	}
	modes := []struct {
		name string
		node core.Config
	}{
		{"serialized COPY after drain (baseline)", core.Config{CopyBatchFiles: math.MaxInt32}},
		{"overlapped incremental COPY", core.Config{}},
	}
	var out []StagingLaneRow
	for _, m := range modes {
		p, err := RunImport(stagingLaneConfig(scale, m.node))
		if err != nil {
			return nil, fmt.Errorf("staging lane %q: %w", m.name, err)
		}
		out = append(out, StagingLaneRow{Name: m.name, Times: p, CopyBatches: p.CopyBatches})
	}
	return out, nil
}

// FormatStagingLane renders the comparison.
func FormatStagingLane(rows []StagingLaneRow) string {
	var sb strings.Builder
	sb.WriteString("Staging lane: overlapped incremental COPY vs serialized baseline\n")
	fmt.Fprintf(&sb, "%-42s %14s %14s %12s %8s %8s\n",
		"configuration", "acquisition", "total", "rate MB/s", "files", "batches")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-42s %14v %14v %12.1f %8d %8d\n",
			r.Name, r.Times.Acquisition.Round(time.Millisecond),
			r.Times.Total.Round(time.Millisecond),
			r.Times.AcquireRateMBs(), r.Times.Files, r.CopyBatches)
	}
	if len(rows) >= 2 && rows[0].Times.Total > 0 {
		delta := (1 - float64(rows[1].Times.Total)/float64(rows[0].Times.Total)) * 100
		fmt.Fprintf(&sb, "overlap saves %.0f%% of serialized wall-clock\n", delta)
	}
	return sb.String()
}
